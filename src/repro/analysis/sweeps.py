"""Parameter-sweep engine: golden simulation vs any set of estimators.

Every paper figure is a sweep of one knob (driver count N, ground
capacitance C, ...) comparing the golden simulation's peak SSN against one
or more closed-form estimates.  :func:`sweep` factors that pattern out:
callers provide a base :class:`DriverBankSpec`, the values to sweep, how to
apply a value to the spec, and named estimator callbacks.

The golden simulations — the expensive part — are memoized on the frozen
spec, run on the engine the ``engine=`` argument names (scalar when
omitted) and can fan out across a process pool (``max_workers``); the cheap
closed-form estimators always run in the calling process, so estimator
callbacks are free to be closures.  Parallel sweeps return points in the
same order as serial sweeps, element for element.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Callable, Sequence

from ..observability import trace
from ..spice.telemetry import SolverTelemetry
from .driver_bank import DriverBankSpec
from .simulate import simulate_many

#: An estimator maps the concrete spec of one sweep point to a peak voltage.
Estimator = Callable[[DriverBankSpec], float]


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One sweep value: golden result plus every estimator's answer.

    Attributes:
        value: the swept knob's value at this point.
        spec: the concrete circuit configuration simulated.
        simulated_peak: golden-simulation maximum SSN voltage.
        estimates: estimator name -> estimated maximum SSN voltage.
        telemetry: solver counters of this point's golden simulation
            (None for points built without one).
    """

    value: float
    spec: DriverBankSpec
    simulated_peak: float
    estimates: dict[str, float]
    telemetry: SolverTelemetry | None = None

    def percent_error(self, name: str) -> float:
        """Signed percent error of one estimator at this point.

        Returns ``nan`` when the golden simulation's peak is exactly zero
        (a degenerate point — e.g. a sweep value that suppresses switching
        entirely), where a relative error is undefined.
        """
        if self.simulated_peak == 0:
            return math.nan
        return 100.0 * (self.estimates[name] - self.simulated_peak) / self.simulated_peak


@dataclasses.dataclass(frozen=True)
class SweepResult:
    """All points of one sweep, in sweep order."""

    knob: str
    points: tuple[SweepPoint, ...]

    def values(self) -> list[float]:
        return [p.value for p in self.points]

    def simulated_peaks(self) -> list[float]:
        return [p.simulated_peak for p in self.points]

    def estimate_series(self, name: str) -> list[float]:
        return [p.estimates[name] for p in self.points]

    def percent_errors(self, name: str) -> list[float]:
        return [p.percent_error(name) for p in self.points]

    @property
    def telemetry(self) -> SolverTelemetry:
        """Aggregated solver telemetry over every point's golden simulation.

        Sums the per-point records (which survive the process-pool round
        trip), so ``result.telemetry.unrecovered_failures == 0`` asserts
        that every operating point of the sweep converged — with however
        many recovered retries ``step_retries`` reports.
        """
        return SolverTelemetry.aggregate(p.telemetry for p in self.points)

    @property
    def estimator_names(self) -> list[str]:
        return sorted(self.points[0].estimates) if self.points else []

    def to_csv(self, path) -> None:
        """Write the sweep as CSV: knob, simulated peak, every estimate.

        Column order is deterministic — the knob, ``simulated``, then
        estimators sorted by name — regardless of estimator-dict insertion
        order, so diffs between sweep runs are meaningful.  Values are
        written with :func:`repr`, the shortest string that round-trips
        the exact float, so reading the file back reproduces every bit.
        An empty sweep writes just the header row.
        """
        names = self.estimator_names
        header = ",".join([self.knob, "simulated"] + names)
        with open(path, "w") as fh:
            fh.write(header + "\n")
            for p in self.points:
                row = [p.value, p.simulated_peak] + [p.estimates[n] for n in names]
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def whole_number(value) -> int:
    """An integral number (2 or 2.0) as an int; ``int()`` truncates 2.7."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not float(value).is_integer():
        raise ValueError(f"expected a whole number, not {value!r}")
    return int(value)


#: sweep knob -> pure spec transform deriving one point's spec from the base.
KNOBS: dict[str, Callable[[DriverBankSpec, float], DriverBankSpec]] = {
    "n_drivers": lambda spec, n: dataclasses.replace(spec, n_drivers=whole_number(n)),
    "inductance": lambda spec, ind: dataclasses.replace(spec, inductance=float(ind)),
    "capacitance": lambda spec, c: dataclasses.replace(spec, capacitance=float(c)),
    "rise_time": lambda spec, tr: dataclasses.replace(spec, rise_time=float(tr)),
}


def assemble_sweep(
    knob: str,
    values: Sequence[float],
    specs: Sequence[DriverBankSpec],
    peaks: Sequence[float],
    telemetries: Sequence[SolverTelemetry | None],
    estimators: dict[str, Estimator],
) -> SweepResult:
    """Pair each point's golden peak with every estimator's answer.

    The estimators are pure functions of the spec, so they run here, in the
    calling process, after the golden simulations have landed.
    """
    return SweepResult(knob=knob, points=tuple(
        SweepPoint(
            value=float(value),
            spec=spec,
            simulated_peak=peak,
            estimates={name: float(fn(spec)) for name, fn in estimators.items()},
            telemetry=tel,
        )
        for value, spec, peak, tel in zip(values, specs, peaks, telemetries)
    ))


def sweep(
    knob: str,
    base: DriverBankSpec,
    values: Sequence[float],
    apply: Callable[[DriverBankSpec, float], DriverBankSpec],
    estimators: dict[str, Estimator],
    max_workers: int | None = None,
    engine: str | None = None,
) -> SweepResult:
    """Run the golden simulation and all estimators across ``values``.

    For checkpoints, retries and engine degradation run the same workload
    through :meth:`repro.analysis.campaign.CampaignRunner.run_sweep`; its
    results are bit-identical to this direct path.

    Args:
        knob: label of the swept quantity (for reports).
        base: template spec; ``apply(base, value)`` yields each point's spec.
        values: knob values, in presentation order.
        apply: pure function deriving a concrete spec from the template
            (:data:`KNOBS` holds the standard ones).
        estimators: name -> callback evaluated on each concrete spec.
        max_workers: process-pool width for the golden simulations; the
            default (None) honors ``REPRO_MAX_WORKERS`` and otherwise runs
            serially.  Results are order- and value-identical either way.
        engine: transient engine for the golden simulations (``"scalar"``,
            ``"batch"`` or ``"auto"``); the default is ``"scalar"``, see
            :func:`repro.analysis.engine.resolve_engine`.  The batched
            engine runs all sweep points in one vectorized Newton loop.

    Returns:
        The populated :class:`SweepResult`.
    """
    with trace.span("sweep", knob=knob, points=len(values)):
        specs = [apply(base, value) for value in values]
        sims = simulate_many(specs, max_workers=max_workers, engine=engine)
        return assemble_sweep(
            knob, values, specs, [sim.peak_voltage for sim in sims],
            [sim.telemetry for sim in sims], estimators,
        )


def sweep_driver_count(
    base: DriverBankSpec, counts: Sequence[int], estimators: dict[str, Estimator],
    max_workers: int | None = None, engine: str | None = None,
) -> SweepResult:
    """Sweep the number of simultaneously switching drivers (Figs. 3-4)."""
    return sweep(
        "n_drivers",
        base,
        list(counts),
        KNOBS["n_drivers"],
        estimators,
        max_workers=max_workers,
        engine=engine,
    )


def sweep_ground_capacitance(
    base: DriverBankSpec, capacitances: Sequence[float], estimators: dict[str, Estimator],
    max_workers: int | None = None, engine: str | None = None,
) -> SweepResult:
    """Sweep the parasitic ground capacitance (Section 4 studies)."""
    return sweep(
        "capacitance",
        base,
        list(capacitances),
        KNOBS["capacitance"],
        estimators,
        max_workers=max_workers,
        engine=engine,
    )


def sweep_rise_time(
    base: DriverBankSpec, rise_times: Sequence[float], estimators: dict[str, Estimator],
    max_workers: int | None = None, engine: str | None = None,
) -> SweepResult:
    """Sweep the input ramp duration (slope design-knob studies)."""
    return sweep(
        "rise_time",
        base,
        list(rise_times),
        KNOBS["rise_time"],
        estimators,
        max_workers=max_workers,
        engine=engine,
    )
