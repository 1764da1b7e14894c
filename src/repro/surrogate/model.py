"""Fitted surrogate models: closed-form SSN answers with a validity contract.

The paper's economics — fit a tiny application-specific device model once,
answer in closed form, stay within a few percent of BSIM-level accuracy —
generalize into a serving tier: a :class:`SurrogateModel` bundles one
fitted :class:`~repro.core.asdm.AsdmParameters` set with everything needed
to decide *whether it may answer* a query at all:

* a **topology signature** (:func:`topology_signature`) — the ground-path
  shape the model was fitted for (``"l"`` or ``"lc"``; series resistance
  and skewed launches are outside the closed forms and signature-distinct);
* a **validity region** (:class:`ValidityRegion`) — the parameter box the
  training sweep spanned, plus an explicit extrapolation guard;
* an **operating region** — ``"first_order"`` for the inductance-only
  network, the damping classification (over/critically/under-damped) for
  LC; a query whose damping class differs from the fitted one is refused;
* **error bounds** — an :class:`~repro.analysis.metrics.ErrorSummary` of
  the closed-form peak against golden simulations over the
  training grid.  A model whose recorded worst-case error exceeds its
  tolerance refuses every query (bound violation), so a bad fit can never
  silently serve wrong numbers.

In-region answers go through the exact closed-form models of
:mod:`repro.core.ssn_inductive` / :mod:`repro.core.ssn_lc` — object
construction plus one ``expm1``/``exp`` evaluation, microseconds — and
:meth:`SurrogateModel.simulation` synthesizes a full
:class:`~repro.analysis.simulate.SsnSimulation` (waveforms on the model's
validity window, NaN beyond it, exactly the convention of the core
models) so surrogate answers plug into every consumer of golden results.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.metrics import ErrorSummary
from ..analysis.simulate import SsnSimulation, default_stop_time, default_time_step
from ..core.asdm import AsdmParameters
from ..core.fitting import FitReport
from ..core.ssn_inductive import InductiveSsnModel
from ..core.ssn_lc import LcSsnModel
from ..spice.telemetry import SolverTelemetry
from ..spice.waveform import Waveform

#: Bumped on incompatible payload-layout changes; a persisted model with
#: any other version fails to load (and the store record is recomputed).
SURROGATE_SCHEMA_VERSION = 1

#: Operating regions a model of each topology can be fitted in.
REGIONS_BY_TOPOLOGY = {
    "l": ("first_order",),
    "lc": ("overdamped", "critically_damped", "underdamped"),
}

#: Relative tolerance for matching a query's fixed template fields
#: (driver strength, per-driver load) against the fitted ones.
_TEMPLATE_RTOL = 1e-9


def _lc_extended_peak(model: LcSsnModel, horizon_periods: float = 3.0) -> tuple[float, float]:
    """(peak, time) of an LC response including the post-ramp continuation.

    Mirrors :meth:`LcSsnModel.peak_voltage_extended` but also locates the
    instant, which the serving answer reports.  The tail grid spans a few
    natural periods — every mode decays at the model's decay rate, so the
    global maximum cannot hide beyond it.
    """
    horizon = horizon_periods * 2.0 * math.pi / model.natural_frequency
    tail_t = model.ramp_end_time + np.linspace(0.0, horizon, 4000)
    tail_v = np.asarray(model.post_ramp_voltage(tail_t), dtype=float)
    i = int(np.argmax(tail_v))
    window_peak = float(model.peak_voltage())
    if float(tail_v[i]) > window_peak:
        return float(tail_v[i]), float(tail_t[i])
    return window_peak, float(model.peak_time())


def topology_signature(spec: DriverBankSpec) -> str:
    """The ground-path shape of a spec, as the surrogate registry keys it.

    ``"l"`` (Section 3, inductance only) or ``"lc"`` (Section 4, shunt
    capacitance), with ``"+r"`` appended for a series ground resistance
    and ``"+skew"`` for staggered launch schedules.  The closed forms
    cover only the bare ``"l"``/``"lc"`` shapes; the suffixed signatures
    exist so unsupported queries key to *no* model (a miss, routed to the
    full engines) rather than a wrong answer.
    """
    sig = "l" if spec.capacitance is None else "lc"
    if spec.resistance > 0:
        sig += "+r"
    if spec.input_offsets is not None:
        sig += "+skew"
    return sig


@dataclasses.dataclass(frozen=True)
class ValidityRegion:
    """Parameter box a surrogate was fitted over, plus extrapolation guard.

    Attributes:
        box: per-knob closed intervals, as a sorted tuple of
            ``(knob, lo, hi)`` triples (``n_drivers``/``inductance``/
            ``rise_time``, plus ``capacitance`` for LC models).
        guard: allowed extrapolation beyond the box per knob, as a
            fraction of that knob's span (0.0 = the box is strict).
    """

    box: tuple[tuple[str, float, float], ...]
    guard: float = 0.0

    def __post_init__(self):
        if self.guard < 0:
            raise ValueError("extrapolation guard must be non-negative")
        for knob, lo, hi in self.box:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo > hi:
                raise ValueError(f"invalid interval for {knob!r}: [{lo}, {hi}]")

    @classmethod
    def from_bounds(cls, guard: float = 0.0, **bounds) -> "ValidityRegion":
        """Build a region from ``knob=(lo, hi)`` keyword bounds."""
        box = tuple(sorted(
            (knob, float(lo), float(hi)) for knob, (lo, hi) in bounds.items()
        ))
        return cls(box=box, guard=float(guard))

    def bounds(self) -> dict[str, tuple[float, float]]:
        return {knob: (lo, hi) for knob, lo, hi in self.box}

    def check(self, spec: DriverBankSpec) -> str | None:
        """None when every boxed knob of ``spec`` is in-region, else why not.

        The guard widens each interval by ``guard * (hi - lo)`` on both
        sides — the recorded allowance for mild extrapolation — so the
        refusal reason always states the *guarded* interval it tested.
        """
        for knob, lo, hi in self.box:
            value = float(getattr(spec, knob))
            margin = self.guard * (hi - lo)
            if not (lo - margin <= value <= hi + margin):
                return (
                    f"validity-box: {knob}={value:.6g} outside "
                    f"[{lo - margin:.6g}, {hi + margin:.6g}]"
                )
        return None

    def as_payload(self) -> dict:
        return {"box": {knob: [lo, hi] for knob, lo, hi in self.box},
                "guard": self.guard}

    @classmethod
    def from_payload(cls, payload: dict) -> "ValidityRegion":
        return cls.from_bounds(
            guard=float(payload.get("guard", 0.0)),
            **{knob: (float(lo), float(hi))
               for knob, (lo, hi) in payload["box"].items()},
        )


@dataclasses.dataclass(frozen=True)
class SurrogateAnswer:
    """One in-region closed-form answer.

    Attributes:
        peak_voltage: maximum SSN voltage in volts (Eqn 7 / Table 1).
        peak_time: instant of that maximum in seconds.
        operating_region: the fitted region that answered.
        error_bound_percent: the model's recorded worst-case peak error
            against golden simulation over its training grid.
    """

    peak_voltage: float
    peak_time: float
    operating_region: str
    error_bound_percent: float


@dataclasses.dataclass(frozen=True)
class SurrogateModel:
    """One auto-fitted reduced model with its full validity contract.

    Attributes:
        technology: technology-card name the model was fitted on.
        vdd: that card's supply voltage (snapshotted: a query whose card
            disagrees is refused rather than mis-scaled).
        topology: :func:`topology_signature` the model covers.
        operating_region: fitted region (see :data:`REGIONS_BY_TOPOLOGY`).
        asdm: the fitted ASDM parameters (paper Eqn 3).
        region: the validity region (parameter box + guard).
        fit_report: IV-surface fit quality of the ASDM extraction.
        error: closed-form peak vs golden simulation over the training
            grid (the serving-time error bound).
        tolerance_percent: worst-case |error| the model may serve under;
            a model whose ``error.max_abs_percent`` exceeds this refuses
            every query.
        driver_strength / load_capacitance: template fields frozen at fit
            time; queries must match them (the ASDM absorbs the device
            width, and the closed forms assume the fitted loading class).
        n_training: golden simulations in the training grid.
    """

    technology: str
    vdd: float
    topology: str
    operating_region: str
    asdm: AsdmParameters
    region: ValidityRegion
    fit_report: FitReport
    error: ErrorSummary
    tolerance_percent: float = 3.0
    driver_strength: float = 1.0
    load_capacitance: float = 10e-12
    n_training: int = 0

    def __post_init__(self):
        if self.topology not in REGIONS_BY_TOPOLOGY:
            raise ValueError(
                f"unsupported topology {self.topology!r}; surrogates cover "
                f"{sorted(REGIONS_BY_TOPOLOGY)}"
            )
        if self.operating_region not in REGIONS_BY_TOPOLOGY[self.topology]:
            raise ValueError(
                f"operating region {self.operating_region!r} is not valid for "
                f"topology {self.topology!r}"
            )
        if self.tolerance_percent <= 0:
            raise ValueError("tolerance_percent must be positive")

    @property
    def key(self) -> tuple[str, str, str]:
        """The registry key: (technology, topology, operating region)."""
        return (self.technology, self.topology, self.operating_region)

    # -- the validity contract -------------------------------------------------------

    def validate(self, spec: DriverBankSpec) -> str | None:
        """None when the model may answer ``spec``, else the refusal reason.

        Reasons are ``"category: detail"`` strings; the category (the part
        before the colon) doubles as the metrics label.  Checks, in order:
        technology identity, topology signature, the frozen template
        fields, the validity box, the operating region, and finally the
        model's own error bound.
        """
        if spec.technology.name != self.technology:
            return (f"technology: query is {spec.technology.name!r}, "
                    f"model fitted on {self.technology!r}")
        if not math.isclose(spec.technology.vdd, self.vdd, rel_tol=_TEMPLATE_RTOL):
            return (f"technology: vdd {spec.technology.vdd} differs from "
                    f"fitted {self.vdd}")
        signature = topology_signature(spec)
        if signature != self.topology:
            return (f"topology: query signature {signature!r}, "
                    f"model covers {self.topology!r}")
        if not math.isclose(spec.driver_strength, self.driver_strength,
                            rel_tol=_TEMPLATE_RTOL):
            return (f"template: driver_strength {spec.driver_strength} != "
                    f"fitted {self.driver_strength}")
        if not math.isclose(spec.load_capacitance, self.load_capacitance,
                            rel_tol=_TEMPLATE_RTOL):
            return (f"template: load_capacitance {spec.load_capacitance} != "
                    f"fitted {self.load_capacitance}")
        reason = self.region.check(spec)
        if reason is not None:
            return reason
        if self.topology == "lc":
            query_region = self.ssn_model(spec).region.name.lower()
            if query_region != self.operating_region:
                return (f"operating-region: query is {query_region}, "
                        f"model fitted {self.operating_region}")
        if self.error.max_abs_percent > self.tolerance_percent:
            return (f"error-bound: fitted worst-case error "
                    f"{self.error.max_abs_percent:.3g}% exceeds the "
                    f"{self.tolerance_percent:.3g}% tolerance")
        return None

    # -- answering -------------------------------------------------------------------

    def ssn_model(self, spec: DriverBankSpec):
        """The closed-form core model instance answering ``spec``."""
        if spec.capacitance is None:
            return InductiveSsnModel(self.asdm, spec.n_drivers, spec.inductance,
                                     self.vdd, spec.rise_time)
        return LcSsnModel(self.asdm, spec.n_drivers, spec.inductance,
                          spec.capacitance, self.vdd, spec.rise_time)

    def answer(self, spec: DriverBankSpec) -> SurrogateAnswer:
        """The microsecond path: peak voltage and time, closed form only.

        L-only networks peak exactly at the ramp end (Eqn 7).  LC networks
        use the post-ramp continuation (:meth:`LcSsnModel.peak_voltage_extended`):
        in the underdamped regimes the physical maximum often rings up
        *after* the ramp, and the golden simulations the error bound was
        taken against see that peak too.

        Callers must have validated the spec (:meth:`validate`); answering
        an out-of-region spec extrapolates silently.
        """
        model = self.ssn_model(spec)
        if spec.capacitance is None:
            peak, peak_time = float(model.peak_voltage()), float(model.peak_time())
        else:
            peak, peak_time = _lc_extended_peak(model)
        return SurrogateAnswer(
            peak_voltage=peak,
            peak_time=peak_time,
            operating_region=self.operating_region,
            error_bound_percent=float(self.error.max_abs_percent),
        )

    def simulation(self, spec: DriverBankSpec) -> SsnSimulation:
        """Synthesize a full :class:`SsnSimulation` from the closed forms.

        Waveforms follow the core models' validity convention — zero
        before turn-on, NaN after the ramp ends — on the same default time
        grid the golden engines would use, so downstream consumers
        (waveform comparison, serving payloads) need no special casing.
        The peak comes from the closed-form formulas, not from sampling.
        The attached telemetry is honest about the work done: zero solver
        counters, one ``surrogate_hits`` extra.
        """
        model = self.ssn_model(spec)
        tstop = default_stop_time(spec)
        dt = default_time_step(spec)
        t = np.arange(0.0, tstop + 0.5 * dt, dt)

        vn = np.asarray(model.voltage(t), dtype=float)
        slope = self.vdd / spec.rise_time
        vin = np.minimum(slope * t, self.vdd)
        # Per-driver channel current (Eqn 8); NaN propagates from vn past
        # the ramp, matching the SSN waveform's validity window.
        i_drv = self.asdm.k * (vin - self.asdm.v0 - self.asdm.lam * vn)
        i_drv = np.where(t < model.turn_on_time, 0.0, np.maximum(i_drv, 0.0))
        if spec.capacitance is None:
            i_l = spec.n_drivers * i_drv
        else:
            # KCL at the bouncing node (Eqn 11): the shunt C carries
            # C * dVn/dt of the total drive current.
            dvn = np.asarray(model.voltage_derivative(t), dtype=float)
            i_l = spec.n_drivers * i_drv - spec.capacitance * dvn
        # The closed forms assume the pads barely move during the ramp.
        vout = np.full_like(t, self.vdd)

        telemetry = SolverTelemetry()
        telemetry.extras["surrogate_hits"] = 1
        answer = self.answer(spec)
        return SsnSimulation(
            spec=spec,
            ssn=Waveform(t, vn),
            inductor_current=Waveform(t, i_l),
            driver_current=Waveform(t, i_drv),
            input_voltage=Waveform(t, vin),
            output_voltage=Waveform(t, vout),
            peak_voltage=answer.peak_voltage,
            peak_time=answer.peak_time,
            telemetry=telemetry,
        )

    # -- persistence -----------------------------------------------------------------

    def as_payload(self) -> dict:
        """JSON-able rendering (the service store's ``surrogate`` records)."""
        return {
            "surrogate_schema": SURROGATE_SCHEMA_VERSION,
            "technology": self.technology,
            "vdd": self.vdd,
            "topology": self.topology,
            "operating_region": self.operating_region,
            "asdm": {"k": self.asdm.k, "v0": self.asdm.v0, "lam": self.asdm.lam},
            "region": self.region.as_payload(),
            "fit_report": dataclasses.asdict(self.fit_report),
            "error": dataclasses.asdict(self.error),
            "tolerance_percent": self.tolerance_percent,
            "driver_strength": self.driver_strength,
            "load_capacitance": self.load_capacitance,
            "n_training": self.n_training,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SurrogateModel":
        """Rebuild a model from :meth:`as_payload` output (store warming)."""
        if payload.get("surrogate_schema") != SURROGATE_SCHEMA_VERSION:
            raise ValueError(
                f"surrogate payload schema {payload.get('surrogate_schema')!r} "
                f"!= supported {SURROGATE_SCHEMA_VERSION}"
            )
        return cls(
            technology=str(payload["technology"]),
            vdd=float(payload["vdd"]),
            topology=str(payload["topology"]),
            operating_region=str(payload["operating_region"]),
            asdm=AsdmParameters(**{k: float(v)
                                   for k, v in payload["asdm"].items()}),
            region=ValidityRegion.from_payload(payload["region"]),
            fit_report=FitReport(**payload["fit_report"]),
            error=ErrorSummary(**payload["error"]),
            tolerance_percent=float(payload["tolerance_percent"]),
            driver_strength=float(payload["driver_strength"]),
            load_capacitance=float(payload["load_capacitance"]),
            n_training=int(payload.get("n_training", 0)),
        )
