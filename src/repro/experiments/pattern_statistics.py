"""Experiment E15 — statistical SSN under random bus data (extension).

The paper computes the *worst case*: all N drivers switching together.
Real buses carry data; on a given cycle only the bits going 1 -> 0 fire
their pull-downs, and for independent equiprobable bits that count is
Binomial(W, 1/4).  Because Eqn (10) is closed-form, the full per-cycle
peak-SSN *distribution* follows immediately — no transient sweep:

    P(Vpeak = Vmax(n)) = C(W, n) (1/4)^n (3/4)^(W-n)

This experiment builds that distribution, spot-validates Vmax(n) against
golden simulations at a few driver counts, and reports the statistical
margin: how far the p99 cycle sits below the all-switch worst case the
paper (and conservative design) budgets for.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.simulate import simulate_ssn
from ..core.figure import circuit_figure, peak_noise_from_figure
from ..packaging.parasitics import GroundPathParasitics
from .common import NOMINAL_GROUND, NOMINAL_RISE_TIME, fitted_models, format_table

#: Probability a bit fires its pull-down on a cycle (1 -> 0 transition).
FALL_PROBABILITY = 0.25


@dataclasses.dataclass(frozen=True)
class PatternStatisticsResult:
    """Per-cycle peak-SSN distribution of a random-data bus.

    Attributes:
        technology_name: process card used.
        bus_width: W, total bus bits.
        switch_counts: n = 0..W.
        probabilities: Binomial(W, 1/4) pmf over n.
        peaks: Eqn 10 peak SSN for each n (0 V at n = 0).
        mean_peak: expected per-cycle peak SSN.
        p99_peak: 99th-percentile per-cycle peak SSN.
        worst_case: all-switch (n = W) peak SSN.
        sim_checks: (n, simulated, modeled) spot validations.
    """

    technology_name: str
    bus_width: int
    switch_counts: np.ndarray
    probabilities: np.ndarray
    peaks: np.ndarray
    mean_peak: float
    p99_peak: float
    worst_case: float
    sim_checks: tuple[tuple[int, float, float], ...]

    @property
    def statistical_margin(self) -> float:
        """worst_case - p99: what all-switch budgeting over-provisions."""
        return self.worst_case - self.p99_peak

    def format_report(self) -> str:
        dist_rows = []
        for n in (0, 1, 2, 4, 8, self.bus_width // 2, self.bus_width):
            if n > self.bus_width:
                continue
            idx = int(n)
            dist_rows.append(
                [f"{idx}", f"{self.probabilities[idx]:.4f}", f"{self.peaks[idx]:.4f}"]
            )
        check_rows = [
            [f"{n}", f"{sim:.4f}", f"{model:.4f}",
             f"{100 * (model - sim) / sim:+.1f}"]
            for n, sim, model in self.sim_checks
        ]
        return (
            f"Random-data bus SSN statistics, {self.technology_name}, "
            f"W = {self.bus_width} bits, P(fall) = {FALL_PROBABILITY}\n"
            + format_table(["n switching", "P(n)", "Eqn10 peak (V)"], dist_rows)
            + f"\n\nmean per-cycle peak: {self.mean_peak:.4f} V\n"
            f"p99 per-cycle peak:  {self.p99_peak:.4f} V\n"
            f"all-switch worst case: {self.worst_case:.4f} V "
            f"(statistical margin {self.statistical_margin * 1e3:.0f} mV)\n\n"
            "Spot validation of Vmax(n) against golden simulation:\n"
            + format_table(["n", "sim (V)", "model (V)", "%err"], check_rows)
            + "\n"
        )


def run(
    technology_name: str = "tsmc018",
    bus_width: int = 32,
    ground: GroundPathParasitics = NOMINAL_GROUND,
    rise_time: float = NOMINAL_RISE_TIME,
    sim_check_counts: Sequence[int] = (4, 8, 16),
) -> PatternStatisticsResult:
    """Build the per-cycle SSN distribution and spot-validate it.

    ``scipy.stats`` is imported here, not at module scope: it is the
    slowest import in the package, and only this binomial weighting uses it.
    """
    from scipy import stats

    if bus_width < 1:
        raise ValueError("bus_width must be positive")
    models = fitted_models(technology_name)
    tech = models.technology
    slope = tech.vdd / rise_time

    counts = np.arange(bus_width + 1)
    pmf = stats.binom.pmf(counts, bus_width, FALL_PROBABILITY)
    peaks = np.zeros(bus_width + 1)
    for n in counts[1:]:
        z = circuit_figure(int(n), ground.inductance, slope)
        peaks[n] = peak_noise_from_figure(z, models.asdm, tech.vdd)

    cdf = np.cumsum(pmf)
    p99_idx = int(np.searchsorted(cdf, 0.99))
    sim_checks = []
    for n in sim_check_counts:
        if not 1 <= n <= bus_width:
            raise ValueError(f"sim check count {n} outside 1..{bus_width}")
        sim = simulate_ssn(
            DriverBankSpec(
                technology=tech, n_drivers=int(n), inductance=ground.inductance,
                rise_time=rise_time,
            )
        )
        sim_checks.append((int(n), sim.peak_voltage, float(peaks[n])))

    return PatternStatisticsResult(
        technology_name=technology_name,
        bus_width=bus_width,
        switch_counts=counts,
        probabilities=pmf,
        peaks=peaks,
        mean_peak=float(np.sum(pmf * peaks)),
        p99_peak=float(peaks[min(p99_idx, bus_width)]),
        worst_case=float(peaks[bus_width]),
        sim_checks=tuple(sim_checks),
    )
