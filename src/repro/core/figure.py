"""The circuit-oriented figure Z = N * L * sr (paper Eqns 9-10).

Rewriting the maximum-SSN formula of Eqn (7) in terms of

    Z = N * L * sr

gives (Eqn 10)

    Vmax(Z) = K*Z * (1 - exp(-(VDD - V0) / (lambda*K*Z)))

so the entire circuit-design freedom collapses into the single product Z:
halving the driver count, halving the ground inductance or halving the
input slope are *equivalent* SSN countermeasures.  This module makes that
observation executable: evaluate Vmax(Z), invert it, and trade the three
factors against each other.
"""

from __future__ import annotations

import math

from .asdm import AsdmParameters


def circuit_figure(n_drivers: float, inductance: float, slope: float) -> float:
    """Z = N * L * sr in volt-henry/second (equivalently V*H/s)."""
    if n_drivers <= 0 or inductance <= 0 or slope <= 0:
        raise ValueError("n_drivers, inductance and slope must all be positive")
    return n_drivers * inductance * slope


def peak_noise_from_figure(z: float, params: AsdmParameters, vdd: float) -> float:
    """Eqn (10): maximum SSN voltage as a function of Z alone."""
    if z <= 0:
        raise ValueError("circuit figure Z must be positive")
    if vdd <= params.v0:
        raise ValueError("vdd must exceed the ASDM offset V0")
    kz = params.k * z
    return kz * -math.expm1(-(vdd - params.v0) / (params.lam * kz))


def figure_for_noise_budget(budget: float, params: AsdmParameters, vdd: float) -> float:
    """Largest Z whose Eqn (10) peak noise stays within ``budget``.

    Vmax(Z) increases monotonically in Z and saturates at
    ``(VDD - V0)/lambda``; budgets at or above that bound are unreachable
    by any finite Z and raise ValueError.

    ``scipy.optimize`` is imported here, not at module scope: it takes
    longer to import than all of ``repro.core``, and only this root solve
    needs ``brentq``.
    """
    from scipy import optimize

    if budget <= 0:
        raise ValueError("noise budget must be positive")
    supremum = (vdd - params.v0) / params.lam
    if budget >= supremum:
        raise ValueError(
            f"budget {budget} V is never exceeded: Vmax saturates at "
            f"(VDD - V0)/lambda = {supremum:.4g} V"
        )

    def excess(log_z: float) -> float:
        return peak_noise_from_figure(math.exp(log_z), params, vdd) - budget

    # Bracket in log-space: small Z -> Vmax ~ K*Z -> below budget.
    lo = math.log(budget / params.k) - 30.0
    hi = math.log(budget / params.k) + 60.0
    return math.exp(optimize.brentq(excess, lo, hi, xtol=1e-12, rtol=1e-12))


def equivalent_driver_count(z: float, inductance: float, slope: float) -> float:
    """N achieving the figure Z at the given L and sr (real-valued)."""
    if z <= 0 or inductance <= 0 or slope <= 0:
        raise ValueError("all arguments must be positive")
    return z / (inductance * slope)


def equivalent_inductance(z: float, n_drivers: float, slope: float) -> float:
    """L achieving the figure Z at the given N and sr."""
    if z <= 0 or n_drivers <= 0 or slope <= 0:
        raise ValueError("all arguments must be positive")
    return z / (n_drivers * slope)


def equivalent_slope(z: float, n_drivers: float, inductance: float) -> float:
    """sr achieving the figure Z at the given N and L."""
    if z <= 0 or n_drivers <= 0 or inductance <= 0:
        raise ValueError("all arguments must be positive")
    return z / (n_drivers * inductance)
