"""Model parameter extraction from simulated IV data (paper Fig. 1).

The paper fits its ASDM model to BSIM3-simulated ``Id(Vg; Vs)`` curves with
the drain held at VDD.  We do the same against the golden device:

* :func:`fit_asdm` — linear least squares for (K, V0, lambda).  Eqn (3) is
  linear in its parameters once written as ``Id = a*Vg + b*Vs + c`` with
  ``K = a``, ``lambda = -b/a``, ``V0 = -c/a``.
* :func:`fit_alpha_power` — nonlinear fit of the Sakurai-Newton saturation
  law ``Id = B*(Vg - Vth)^alpha`` (substrate for the Vemuru/Song/Jou
  baselines, which all start from the alpha-power model).
* :func:`fit_square_law` — classic ``sqrt(Id)`` extraction (substrate for
  the Senthinathan & Prince baseline).

All fits exclude the near-threshold tail: the paper argues (and we verify
in tests) that the weak-inversion region carries negligible SSN current, so
models are judged only where the drivers actually conduct.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..devices.sweep import IvSurface
from .asdm import AsdmParameters


@dataclasses.dataclass(frozen=True)
class FitReport:
    """Quality of a model fit over the retained (strongly-on) points.

    Attributes:
        rms_error: RMS absolute current error in amperes.
        max_abs_error: worst absolute current error in amperes.
        max_relative_error: worst |error| / max(Id) over retained points.
        n_points: number of IV samples used in the fit.
    """

    rms_error: float
    max_abs_error: float
    max_relative_error: float
    n_points: int


@dataclasses.dataclass(frozen=True)
class AlphaPowerSsnParameters:
    """Alpha-power saturation law of one whole driver (width absorbed).

    Attributes:
        b: drive coefficient in A/V^alpha (total, not per meter).
        vth: extracted threshold voltage in volts.
        alpha: velocity-saturation index.
    """

    b: float
    vth: float
    alpha: float

    def saturation_current(self, vgs):
        """``Id = b * (vgs - vth)^alpha`` clamped at zero."""
        vov = np.maximum(np.asarray(vgs, dtype=float) - self.vth, 0.0)
        return self.b * np.power(vov, self.alpha)

    def transconductance(self, vgs):
        """dId/dVgs of the saturation law."""
        vov = np.maximum(np.asarray(vgs, dtype=float) - self.vth, 1e-12)
        return self.alpha * self.b * np.power(vov, self.alpha - 1.0)


@dataclasses.dataclass(frozen=True)
class SquareLawSsnParameters:
    """Square-law saturation model of one whole driver.

    Attributes:
        beta: total transconductance factor in A/V^2 (``Id = beta/2*(Vgs-Vth)^2``).
        vth: extracted threshold voltage in volts.
    """

    beta: float
    vth: float

    def saturation_current(self, vgs):
        vov = np.maximum(np.asarray(vgs, dtype=float) - self.vth, 0.0)
        return 0.5 * self.beta * np.square(vov)


def _retained(surface: IvSurface, floor_fraction: float):
    """Flattened (vg, vs, id) restricted to currents above the floor."""
    if not 0.0 < floor_fraction < 1.0:
        raise ValueError("floor_fraction must be in (0, 1)")
    vg, vs, ids = surface.flattened()
    keep = ids > floor_fraction * float(np.max(ids))
    if np.count_nonzero(keep) < 4:
        raise ValueError("too few strongly-on IV samples to fit; lower floor_fraction")
    return vg[keep], vs[keep], ids[keep]


def _report(ids: np.ndarray, predicted: np.ndarray) -> FitReport:
    err = predicted - ids
    scale = float(np.max(ids))
    return FitReport(
        rms_error=float(np.sqrt(np.mean(np.square(err)))),
        max_abs_error=float(np.max(np.abs(err))),
        max_relative_error=float(np.max(np.abs(err)) / scale),
        n_points=len(ids),
    )


def fit_asdm(surface: IvSurface, floor_fraction: float = 0.05) -> tuple[AsdmParameters, FitReport]:
    """Extract ASDM (K, V0, lambda) from an Id(Vg; Vs) surface.

    Args:
        surface: IV data with drain at VDD (see :func:`repro.devices.sweep.sweep_id_vg`).
        floor_fraction: drop samples below this fraction of the peak current
            (the near-threshold region the paper excludes).

    Returns:
        (params, report): fitted parameters and fit quality over the
        retained region.
    """
    vg, vs, ids = _retained(surface, floor_fraction)
    design = np.column_stack([vg, vs, np.ones_like(vg)])
    (a, b, c), *_ = np.linalg.lstsq(design, ids, rcond=None)
    if a <= 0:
        raise ValueError("degenerate fit: non-positive transconductance slope")
    params = AsdmParameters(k=float(a), v0=float(-c / a), lam=float(-b / a))
    return params, _report(ids, params.drain_current(vg, vs))


def fit_alpha_power(
    surface: IvSurface, floor_fraction: float = 0.02
) -> tuple[AlphaPowerSsnParameters, FitReport]:
    """Fit the alpha-power saturation law to the Vs = 0 curve of a surface.

    ``scipy.optimize`` is imported here, not at module scope: it takes
    longer to import than all of ``repro.core``, and only this baseline
    fit needs it (the ASDM path, :func:`fit_asdm`, is pure numpy).
    """
    from scipy import optimize

    ids = surface.curve(0.0)
    vg = surface.vg
    keep = ids > floor_fraction * float(np.max(ids))
    vg, ids = vg[keep], ids[keep]
    if len(ids) < 4:
        raise ValueError("too few points above the current floor for an alpha-power fit")

    def law(v, b, vth, alpha):
        return b * np.power(np.maximum(v - vth, 0.0), alpha)

    imax = float(np.max(ids))
    vmax = float(np.max(vg))
    p0 = (imax / max(vmax - 0.5, 0.1), 0.45, 1.3)
    bounds = ([1e-9, 0.0, 0.8], [np.inf, 0.9 * vmax, 2.2])
    popt, _ = optimize.curve_fit(law, vg, ids, p0=p0, bounds=bounds, maxfev=20000)
    params = AlphaPowerSsnParameters(b=float(popt[0]), vth=float(popt[1]), alpha=float(popt[2]))
    return params, _report(ids, params.saturation_current(vg))


def fit_square_law(
    surface: IvSurface, floor_fraction: float = 0.05
) -> tuple[SquareLawSsnParameters, FitReport]:
    """Fit ``Id = beta/2 (Vg-Vth)^2`` via linear regression on sqrt(Id)."""
    ids = surface.curve(0.0)
    vg = surface.vg
    keep = ids > floor_fraction * float(np.max(ids))
    vg, ids = vg[keep], ids[keep]
    if len(ids) < 3:
        raise ValueError("too few points above the current floor for a square-law fit")
    root = np.sqrt(ids)
    slope, intercept = np.polyfit(vg, root, 1)
    if slope <= 0:
        raise ValueError("degenerate square-law fit: non-positive slope")
    params = SquareLawSsnParameters(beta=float(2.0 * slope**2), vth=float(-intercept / slope))
    return params, _report(ids, params.saturation_current(vg))
