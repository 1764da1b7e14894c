"""Experiment E5 — paper Table 1: the four maximum-SSN formulas.

For each of the four cases (over-damped, critically damped, under-damped
with the first peak inside the ramp, under-damped with the ramp ending
first) this experiment:

1. picks a configuration that provably lands in that case,
2. integrates the exact second-order ODE (Eqn 13) numerically with scipy
   and checks the closed-form waveform against it (these must agree to
   solver precision — the paper's derivation is exact given ASDM),
3. checks the Table 1 peak formula against the numeric maximum, and
4. checks both against the golden circuit simulation (where the error is
   the ASDM modeling error, a few percent).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.simulate import simulate_ssn
from ..core.asdm import AsdmParameters
from ..core.damping import critical_capacitance
from ..core.ssn_lc import LcSsnModel, Table1Case
from .common import NOMINAL_GROUND, NOMINAL_LOAD, NOMINAL_RISE_TIME, fitted_models, format_table


@dataclasses.dataclass(frozen=True)
class CaseConfig:
    """A (N, C, tr) configuration chosen to land in one Table 1 case."""

    case: Table1Case
    n_drivers: int
    capacitance: float
    rise_time: float


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """Validation numbers for one case.

    Attributes:
        config: the configuration exercised.
        model: the closed-form LC model.
        formula_peak: Table 1 closed-form maximum.
        ode_peak: maximum of the numerically integrated Eqn (13).
        sim_peak: golden-simulation maximum.
        extended_peak: post-ramp-continuation maximum (extension beyond
            the paper; matters in case 3b, where the physical peak lands
            just after the ramp).
        waveform_max_diff: max |closed form - ODE| over the window, volts.
    """

    config: CaseConfig
    model: LcSsnModel
    formula_peak: float
    ode_peak: float
    sim_peak: float
    extended_peak: float
    waveform_max_diff: float

    @property
    def formula_vs_ode_percent(self) -> float:
        return 100.0 * (self.formula_peak - self.ode_peak) / self.ode_peak

    @property
    def formula_vs_sim_percent(self) -> float:
        return 100.0 * (self.formula_peak - self.sim_peak) / self.sim_peak

    @property
    def extended_vs_sim_percent(self) -> float:
        return 100.0 * (self.extended_peak - self.sim_peak) / self.sim_peak


@dataclasses.dataclass(frozen=True)
class Table1Result:
    """All four validated cases."""

    technology_name: str
    rows: tuple[Table1Row, ...]

    def format_report(self) -> str:
        body = []
        for row in self.rows:
            cfg = row.config
            body.append(
                [
                    cfg.case.name,
                    f"{cfg.n_drivers}",
                    f"{cfg.capacitance * 1e12:.2f}",
                    f"{cfg.rise_time * 1e9:.2f}",
                    f"{row.formula_peak:.4f}",
                    f"{row.ode_peak:.4f}",
                    f"{row.formula_vs_ode_percent:+.3f}",
                    f"{row.sim_peak:.4f}",
                    f"{row.formula_vs_sim_percent:+.2f}",
                    f"{row.extended_vs_sim_percent:+.2f}",
                    f"{row.waveform_max_diff:.2e}",
                ]
            )
        table = format_table(
            ["case", "N", "C (pF)", "tr (ns)", "formula (V)", "ODE (V)", "%vsODE",
             "sim (V)", "%vsSim", "ext%vsSim", "max|wf diff|"],
            body,
        )
        return f"Table 1 — maximum-SSN formulas, {self.technology_name}\n" + table + "\n"


def _select_configs(params: AsdmParameters, vdd: float, inductance: float) -> list[CaseConfig]:
    """Configurations guaranteed to land in each of the four cases."""
    nominal_c = NOMINAL_GROUND.capacitance
    critical_n = 8
    configs = [
        CaseConfig(Table1Case.OVERDAMPED, 12, nominal_c, NOMINAL_RISE_TIME),
        CaseConfig(
            Table1Case.CRITICALLY_DAMPED,
            critical_n,
            critical_capacitance(params, critical_n, inductance),
            NOMINAL_RISE_TIME,
        ),
        CaseConfig(Table1Case.UNDERDAMPED_FIRST_PEAK, 2, nominal_c, NOMINAL_RISE_TIME),
        CaseConfig(Table1Case.UNDERDAMPED_BOUNDARY, 2, nominal_c, 0.2e-9),
    ]
    for cfg in configs:
        model = LcSsnModel(params, cfg.n_drivers, inductance, cfg.capacitance, vdd, cfg.rise_time)
        if model.case is not cfg.case:
            raise RuntimeError(
                f"configuration {cfg} landed in {model.case}, expected {cfg.case}; "
                "recalibrate the nominal conditions"
            )
    return configs


def integrate_ode(model: LcSsnModel, samples: int = 4000) -> tuple[np.ndarray, np.ndarray]:
    """Numerically integrate Eqn (13) over the active window.

    Returns:
        (t, vn): times from turn-on to ramp end and the integrated SSN.

    ``scipy.integrate`` is imported here, not at module scope: only this
    cross-check needs it.
    """
    from scipy.integrate import solve_ivp

    lc = model.inductance * model.capacitance
    two_a = 2.0 * model.decay_rate
    vss = model.asymptotic_voltage

    def rhs(_t, y):
        v, vdot = y
        return [vdot, (vss - v) / lc - two_a * vdot]

    t0, te = model.turn_on_time, model.ramp_end_time
    sol = solve_ivp(rhs, (t0, te), [0.0, 0.0], rtol=1e-11, atol=1e-15, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"ODE integration failed: {sol.message}")
    t = np.linspace(t0, te, samples)
    return t, sol.sol(t)[0]


def run(technology_name: str = "tsmc018") -> Table1Result:
    """Validate all four Table 1 formulas for one technology."""
    models = fitted_models(technology_name)
    tech = models.technology
    inductance = NOMINAL_GROUND.inductance
    rows = []
    for cfg in _select_configs(models.asdm, tech.vdd, inductance):
        model = LcSsnModel(
            models.asdm, cfg.n_drivers, inductance, cfg.capacitance, tech.vdd, cfg.rise_time
        )
        t, vn = integrate_ode(model)
        closed = np.asarray(model.voltage(t))
        sim = simulate_ssn(
            DriverBankSpec(
                technology=tech,
                n_drivers=cfg.n_drivers,
                inductance=inductance,
                capacitance=cfg.capacitance,
                rise_time=cfg.rise_time,
                load_capacitance=NOMINAL_LOAD,
            )
        )
        rows.append(
            Table1Row(
                config=cfg,
                model=model,
                formula_peak=model.peak_voltage(),
                ode_peak=float(np.max(vn)),
                sim_peak=sim.peak_voltage,
                extended_peak=model.peak_voltage_extended(),
                waveform_max_diff=float(np.max(np.abs(closed - vn))),
            )
        )
    return Table1Result(technology_name=technology_name, rows=tuple(rows))
