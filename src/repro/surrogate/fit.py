"""Auto-fit one surrogate model from golden simulator data.

The fit recipe mirrors the paper's own characterization flow, then adds
the validity bookkeeping the serving tier needs:

1. **Device extraction** — sweep the technology's driver device
   (``Id(Vg; Vs)`` with the drain at VDD, the Fig. 1 surface) and extract
   ASDM ``(K, V0, lambda)`` with :func:`repro.core.fitting.fit_asdm`
   (pure-numpy least squares; no scipy on this path).
2. **Training grid** — the corners of the requested parameter box plus
   its center point, golden-simulated through
   :func:`repro.analysis.simulate.simulate_many` (batched by default, so
   the lockstep engine amortizes the Newton work).
3. **Peak calibration** — the IV-surface fit is *device*-accurate but the
   closed form carries a systematic, Z-dependent bias against the golden
   MNA transient (the formulas ignore output loading and the solver's
   exact device curves).  This is where the "application specific" of the
   paper's title earns its keep: the ASDM triple is refined against the
   golden *peaks* over the training grid, so the model is fitted for the
   question it will be asked, not just for the device's DC surface.
4. **Error bounds** — the closed-form peak at every training point
   against its golden peak, folded into an
   :class:`~repro.analysis.metrics.ErrorSummary`.  That summary ships
   with the model and is re-checked on every query: a fit whose
   worst-case training error exceeds the tolerance refuses to serve.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.engine import resolve_engine
from ..core.asdm import AsdmParameters
from ..analysis.metrics import ErrorSummary
from ..analysis.simulate import simulate_many
from ..core.fitting import fit_asdm
from ..devices.sweep import sweep_id_vg
from ..observability import trace
from ..process import get_technology
from ..process.technology import Technology
from .model import REGIONS_BY_TOPOLOGY, SurrogateModel, ValidityRegion


def _knob_values(name: str, lo: float, hi: float, samples: int) -> list[float]:
    """Training values for one knob: an inclusive linspace over its interval.

    Driver counts are integers; their grid is rounded and deduplicated so a
    narrow box never trains the same corner twice.
    """
    values = np.linspace(lo, hi, samples)
    if name == "n_drivers":
        values = sorted({max(1, int(round(v))) for v in values})
    return [float(v) for v in values]


def training_specs(
    technology: Technology,
    region: ValidityRegion,
    *,
    capacitance_knob: bool,
    driver_strength: float,
    load_capacitance: float,
    samples_per_knob: int = 2,
) -> list[DriverBankSpec]:
    """The golden training grid: full factorial over the box, plus its center.

    ``samples_per_knob=2`` (the default) trains on the box corners —
    ``2^k`` simulations — and the center point makes the interior error
    observable too, so the recorded bound is not a pure-boundary artifact.
    """
    bounds = region.bounds()
    names = sorted(bounds)
    grids = [_knob_values(name, *bounds[name], samples_per_knob) for name in names]
    points = {tuple(p) for p in itertools.product(*grids)}
    center = []
    for name in names:
        lo, hi = bounds[name]
        mid = 0.5 * (lo + hi)
        center.append(float(max(1, int(round(mid)))) if name == "n_drivers" else mid)
    points.add(tuple(center))

    specs = []
    for point in sorted(points):
        knobs = dict(zip(names, point))
        knobs["n_drivers"] = int(knobs["n_drivers"])
        if not capacitance_knob:
            knobs.pop("capacitance", None)
        specs.append(DriverBankSpec(
            technology=technology,
            driver_strength=driver_strength,
            load_capacitance=load_capacitance,
            **knobs,
        ))
    return specs


def fit_surrogate(
    technology: Technology | str,
    *,
    n_drivers: tuple[float, float] = (2, 12),
    inductance: tuple[float, float] = (2e-9, 8e-9),
    rise_time: tuple[float, float] = (0.2e-9, 0.8e-9),
    capacitance: tuple[float, float] | None = None,
    guard: float = 0.0,
    calibrate: bool = True,
    tolerance_percent: float = 3.0,
    driver_strength: float = 1.0,
    load_capacitance: float = 10e-12,
    samples_per_knob: int = 2,
    engine: str | None = "batch",
) -> SurrogateModel:
    """Fit a surrogate for one technology over one parameter box.

    Args:
        technology: technology card or its name.
        n_drivers / inductance / rise_time: ``(lo, hi)`` intervals of the
            validity box.
        capacitance: ``(lo, hi)`` shunt-capacitance interval for an LC
            surrogate, or None (the default) for the inductance-only
            topology.
        guard: extrapolation allowance per knob, as a fraction of its span.
        calibrate: refine the ASDM triple against the golden training
            peaks (recommended; roughly halves the recorded error bound).
        tolerance_percent: worst-case peak error the model may serve under.
        driver_strength / load_capacitance: template fields frozen into
            the model (queries must match them exactly).
        samples_per_knob: training-grid density per knob (2 = corners).
        engine: execution engine for the golden training simulations
            (default ``"batch"``).

    Returns:
        The fitted :class:`SurrogateModel`, error bounds included.  The
        model is *returned*, not registered — callers decide whether it
        goes into a registry, the service store, or both.
    """
    if isinstance(technology, str):
        technology = get_technology(technology)
    resolve_engine(engine)  # an unknown engine fails before the I-V sweep
    if samples_per_knob < 2:
        raise ValueError("samples_per_knob must be at least 2")

    bounds = {"n_drivers": n_drivers, "inductance": inductance,
              "rise_time": rise_time}
    topology = "l"
    if capacitance is not None:
        bounds["capacitance"] = capacitance
        topology = "lc"
    region = ValidityRegion.from_bounds(guard=guard, **bounds)

    with trace.span("surrogate_fit", technology=technology.name,
                    topology=topology):
        surface = sweep_id_vg(technology.driver_device(driver_strength),
                              technology.vdd)
        asdm, fit_report = fit_asdm(surface)

        specs = training_specs(
            technology, region,
            capacitance_knob=capacitance is not None,
            driver_strength=driver_strength,
            load_capacitance=load_capacitance,
            samples_per_knob=samples_per_knob,
        )
        golden = simulate_many(specs, engine=engine)

        # A draft model (error bound filled in below) provides the
        # closed-form peaks and the operating-region classification.
        draft = SurrogateModel(
            technology=technology.name,
            vdd=technology.vdd,
            topology=topology,
            operating_region=REGIONS_BY_TOPOLOGY[topology][0],
            asdm=asdm,
            region=region,
            fit_report=fit_report,
            error=ErrorSummary(0.0, 0.0, 0.0, 0.0),
            tolerance_percent=tolerance_percent,
            driver_strength=driver_strength,
            load_capacitance=load_capacitance,
            n_training=len(specs),
        )
        operating_region = _classify_region(draft, specs)
        references = [sim.peak_voltage for sim in golden]
        if calibrate:
            draft = dataclasses.replace(
                draft, asdm=_calibrate_asdm(draft, specs, references))
        estimates = [draft.answer(spec).peak_voltage for spec in specs]
        error = ErrorSummary.from_pairs(estimates, references)

    return dataclasses.replace(draft, operating_region=operating_region,
                               error=error)


def _calibrate_asdm(draft: SurrogateModel, specs, references) -> AsdmParameters:
    """Refine (K, V0, lambda) against the golden peaks over the training grid.

    The IV-surface least squares leaves a systematic bias between the
    closed-form peak and the golden MNA transient (the formulas neglect
    output loading, and the solver integrates the exact device curves the
    ASDM plane only approximates).  A Nelder-Mead polish on the worst-case
    relative peak error — K and lambda in log-space to stay positive, V0
    additive — removes most of that bias; on the stock box it roughly
    halves the recorded error bound.  Falls back to the uncalibrated
    triple when the polish fails to improve.

    ``scipy.optimize`` is imported here, not at module scope: it takes
    longer to import than all of ``repro.core``, and only a fit with
    ``calibrate=True`` needs it.
    """
    from scipy import optimize

    golden = np.asarray(references, dtype=float)
    base = draft.asdm

    def relative_errors(params: AsdmParameters) -> np.ndarray:
        model = dataclasses.replace(draft, asdm=params)
        peaks = np.array([model.answer(s).peak_voltage for s in specs])
        return (peaks - golden) / golden

    def unpack(x) -> AsdmParameters:
        return AsdmParameters(
            k=float(base.k * np.exp(x[0])),
            v0=float(base.v0 + x[1]),
            lam=float(base.lam * np.exp(x[2])),
        )

    def cost(x) -> float:
        try:
            err = relative_errors(unpack(x))
        except ValueError:
            return 1e6  # invalid triple (e.g. V0 pushed past VDD)
        # Chebyshev objective (the serving gate is worst-case) with a
        # small RMS tiebreak so flat plateaus still drain the average.
        return float(np.max(np.abs(err))) + 0.1 * float(np.sqrt(np.mean(err**2)))

    result = optimize.minimize(
        cost, np.zeros(3), method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    calibrated = unpack(result.x)
    before = float(np.max(np.abs(relative_errors(base))))
    after = float(np.max(np.abs(relative_errors(calibrated))))
    return calibrated if after < before else base


def _classify_region(draft: SurrogateModel, specs) -> str:
    """The fitted operating region: uniform over the training grid, or refuse.

    L-only networks are always first-order.  For LC, every training point
    is classified with the fitted ASDM; a box straddling a damping
    boundary has no single closed-form regime, so the fit raises rather
    than record a region half its box violates.
    """
    if draft.topology == "l":
        return "first_order"
    regions = {draft.ssn_model(spec).region.name.lower() for spec in specs}
    if len(regions) > 1:
        raise ValueError(
            "training box straddles damping regions "
            f"{sorted(regions)}; split the capacitance/inductance box so "
            "each surrogate covers one regime"
        )
    return next(iter(regions))
