"""Process-variation Monte Carlo on the ASDM parameters (extension).

The paper fits (K, V0, lambda) to one nominal process corner.  Real silicon
varies; because the peak-SSN formula (Eqn 10) is closed-form, propagating
parameter spread to a noise distribution is essentially free — one of the
practical payoffs of an analytic model over simulation.  This module draws
correlated-lognormal K and normal V0/lambda perturbations and reports the
resulting peak-SSN statistics.

:func:`transient_peak_distribution` runs the same draws through the golden
simulator instead, on the engine its ``engine=`` argument names (scalar
when omitted).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..core.asdm import AsdmParameters
from ..core.figure import circuit_figure, peak_noise_from_figure
from ..observability import trace
from ..spice.telemetry import SolverTelemetry, record_session
from .driver_bank import DriverBankSpec


@dataclasses.dataclass(frozen=True)
class ParameterSpread:
    """Relative (1-sigma) spreads of the ASDM parameters.

    Attributes:
        k_sigma: lognormal sigma of K (drive-strength variation).
        v0_sigma: absolute normal sigma of V0 in volts (threshold variation).
        lam_sigma: absolute normal sigma of lambda.
    """

    k_sigma: float = 0.08
    v0_sigma: float = 0.03
    lam_sigma: float = 0.01

    def __post_init__(self):
        if min(self.k_sigma, self.v0_sigma, self.lam_sigma) < 0:
            raise ValueError("spreads must be non-negative")


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Distribution of the peak SSN voltage under process variation.

    Attributes:
        samples: per-trial peak SSN voltages.
        mean: sample mean in volts.
        std: sample standard deviation in volts.
        p95: 95th-percentile peak SSN (the guard-band number).
        nominal: peak SSN at the nominal parameters.
        telemetry: run observability record (wall clock under
            ``phase_seconds["montecarlo"]``; the closed-form evaluator
            needs no Newton solves, so the solver counters stay zero).
    """

    samples: np.ndarray
    mean: float
    std: float
    p95: float
    nominal: float
    telemetry: SolverTelemetry | None = None

    @classmethod
    def from_samples(cls, samples: np.ndarray, nominal: float,
                     telemetry: SolverTelemetry | None) -> "MonteCarloResult":
        """Summarize per-trial peaks: mean, standard deviation and p95."""
        return cls(
            samples=samples,
            mean=float(np.mean(samples)),
            std=float(np.std(samples)),
            p95=float(np.percentile(samples, 95.0)),
            nominal=nominal,
            telemetry=telemetry,
        )

    @property
    def guard_band(self) -> float:
        """How much margin variation demands: p95 - nominal, volts."""
        return self.p95 - self.nominal


def peak_noise_distribution(
    params: AsdmParameters,
    n_drivers: int,
    inductance: float,
    vdd: float,
    rise_time: float,
    spread: ParameterSpread | None = None,
    trials: int = 2000,
    seed: int = 0,
) -> MonteCarloResult:
    """Monte Carlo the Eqn (10) peak SSN under ASDM parameter variation.

    Args:
        params: nominal fitted parameters.
        n_drivers, inductance, vdd, rise_time: circuit configuration.
        spread: parameter sigmas (defaults are typical die-to-die numbers).
        trials: number of Monte Carlo draws.
        seed: RNG seed for reproducibility.

    Returns:
        The sampled distribution and its summary statistics.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    spread = spread or ParameterSpread()
    tel = SolverTelemetry()
    wall_start = time.perf_counter()
    with trace.span("montecarlo", kind="closed_form", trials=trials) as msp:
        rng = np.random.default_rng(seed)
        z = circuit_figure(n_drivers, inductance, vdd / rise_time)
        nominal = peak_noise_from_figure(z, params, vdd)

        ks = params.k * rng.lognormal(
            mean=0.0, sigma=max(spread.k_sigma, 1e-12), size=trials
        )
        v0s = params.v0 + rng.normal(0.0, spread.v0_sigma, size=trials)
        lams = params.lam + rng.normal(0.0, spread.lam_sigma, size=trials)

        # Eqn (10) over every trial at once, with each draw clamped to a
        # physical device (V0 below VDD, lambda positive).
        v0s = np.minimum(np.maximum(v0s, 0.0), 0.9 * vdd)
        lams = np.maximum(lams, 1e-3)
        kz = ks * z
        samples = kz * -np.expm1(-(vdd - v0s) / (lams * kz))

    tel.add_phase_seconds("montecarlo", trace.elapsed(msp, wall_start))
    record_session(tel)
    return MonteCarloResult.from_samples(samples, nominal, tel)


@dataclasses.dataclass(frozen=True)
class DeviceSpread:
    """1-sigma spreads of the golden device parameters for transient MC.

    Attributes:
        vth_sigma: absolute normal sigma of the zero-bias threshold in
            volts (die-to-die threshold variation).
        mu_sigma: lognormal sigma of the low-field mobility (relative
            drive-strength variation; lognormal keeps mobility positive).
    """

    vth_sigma: float = 0.015
    mu_sigma: float = 0.05

    def __post_init__(self):
        if min(self.vth_sigma, self.mu_sigma) < 0:
            raise ValueError("spreads must be non-negative")


def device_trials(
    spec: DriverBankSpec, spread: DeviceSpread | None, trials: int, seed: int,
) -> tuple[DeviceSpread, list[DriverBankSpec]]:
    """The spread used (``spread`` or the default) and one spec per trial.

    Each trial perturbs the nominal NMOS threshold (normal) and mobility
    (lognormal), drawn up front from ``seed``: the trial vector is the same
    for every engine, chunking, worker count and recovery path.
    """
    if trials < 2:
        raise ValueError("trials must be at least 2")
    spread = spread or DeviceSpread()
    rng = np.random.default_rng(seed)
    tech = spec.technology
    vths = tech.nmos.vth0 + rng.normal(0.0, spread.vth_sigma, size=trials)
    mus = tech.nmos.mu0 * rng.lognormal(
        mean=0.0, sigma=max(spread.mu_sigma, 1e-12), size=trials
    )
    return spread, [
        dataclasses.replace(
            spec,
            technology=dataclasses.replace(
                tech, nmos=tech.nmos.scaled(vth0=float(v), mu0=float(m))
            ),
        )
        for v, m in zip(vths, mus)
    ]


def transient_peak_distribution(
    spec: DriverBankSpec,
    spread: DeviceSpread | None = None,
    trials: int = 64,
    seed: int = 0,
    engine: str | None = None,
) -> MonteCarloResult:
    """Monte Carlo the *golden-simulated* peak SSN under device variation.

    Where :func:`peak_noise_distribution` propagates spread through the
    closed-form Eqn (10), this runs the full transient simulator on every
    trial: the nominal technology's NMOS threshold and mobility are
    perturbed, a driver-bank circuit is built per draw
    (:func:`device_trials`), and the whole fleet of same-topology circuits
    is simulated.  Under the batched engine (``engine="batch"``) the
    fleet advances in one vectorized Newton loop instead of ``trials`` independent runs, which is what makes
    golden Monte Carlo affordable.  For checkpoints, retries and engine
    degradation run the same workload through
    :meth:`repro.analysis.campaign.CampaignRunner.run_montecarlo`.

    Args:
        spec: nominal driver-bank configuration.
        spread: device-parameter sigmas (defaults are typical die-to-die
            numbers).
        trials: number of Monte Carlo draws.
        seed: RNG seed for reproducibility; the draw vector is fixed up
            front, so samples are identical for every engine.
        engine: transient engine, as in
            :func:`repro.analysis.simulate.simulate_many`.

    Returns:
        The sampled golden peak-SSN distribution and summary statistics;
        ``telemetry`` aggregates the fleet's solver counters plus the wall
        clock under ``phase_seconds["montecarlo_transient"]``.
    """
    # Local import: simulate builds on driver_bank, keep module import light.
    from .simulate import aggregate_telemetry, simulate_many, simulate_ssn_cached

    wall_start = time.perf_counter()
    with trace.span("montecarlo", kind="transient", trials=trials) as msp:
        _, trial_specs = device_trials(spec, spread, trials, seed)
        sims = simulate_many(trial_specs, engine=engine)
        samples = np.array([sim.peak_voltage for sim in sims])

    tel = aggregate_telemetry(sims)
    tel.add_phase_seconds("montecarlo_transient", trace.elapsed(msp, wall_start))
    return MonteCarloResult.from_samples(
        samples, simulate_ssn_cached(spec).peak_voltage, tel)
