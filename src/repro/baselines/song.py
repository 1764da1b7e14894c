"""Song et al. (1999) SSN estimator — constant derivative + linear Vn(t).

Reference [8] of the paper: "Accurate Modeling of Simultaneous Switching
Noise in Low Voltage Digital VLSI", ISCAS 1999.  The paper characterizes
it by *two* assumptions layered on the alpha-power model:

1. the drain-current derivative is constant over the ramp, and
2. the SSN voltage is linear in time, ``Vn(t) = Vmax * (t - t0)/(te - t0)``.

Substituting both into the ground-node equation ``Vn = N*L*dId/dt``
evaluated at the end of the ramp (where the linear profile peaks) gives an
implicit scalar equation for the peak:

    Vmax = N*L * alpha*B*(VDD - Vth - Vmax)^(alpha-1)
               * (sr - Vmax * sr/(VDD - Vth))

The left side grows from 0 while the right side falls to below zero as
Vmax -> VDD - Vth, so a unique root exists; we solve it with Brent's
method.  As with the Vemuru baseline, secondary constants of the original
publication are unverifiable offline; the approximation structure is what
the comparison exercises.
"""

from __future__ import annotations

from ..core.fitting import AlphaPowerSsnParameters


class SongSsnModel:
    """Implicit peak-SSN estimate with the linear-Vn assumption."""

    name = "song-1999"

    def __init__(
        self,
        params: AlphaPowerSsnParameters,
        n_drivers: int,
        inductance: float,
        vdd: float,
        rise_time: float,
    ):
        if n_drivers <= 0 or inductance <= 0 or rise_time <= 0:
            raise ValueError("n_drivers, inductance and rise_time must be positive")
        if vdd <= params.vth:
            raise ValueError("vdd must exceed the extracted threshold")
        self.params = params
        self.n_drivers = int(n_drivers)
        self.inductance = inductance
        self.vdd = vdd
        self.rise_time = rise_time

    @property
    def slope(self) -> float:
        return self.vdd / self.rise_time

    def _residual(self, vmax: float) -> float:
        p = self.params
        overdrive = self.vdd - p.vth
        g = p.transconductance(self.vdd - vmax)  # alpha*B*(VDD - Vth - Vmax)^(alpha-1)
        dvn_dt = vmax * self.slope / overdrive
        return self.n_drivers * self.inductance * float(g) * (self.slope - dvn_dt) - vmax

    def peak_voltage(self) -> float:
        """Root of the implicit peak equation on (0, VDD - Vth).

        ``scipy.optimize`` is imported here, not at module scope, as in
        :func:`repro.core.fitting.fit_alpha_power`.
        """
        from scipy import optimize

        overdrive = self.vdd - self.params.vth
        lo, hi = 0.0, overdrive * (1.0 - 1e-9)
        if self._residual(lo) <= 0.0:
            return 0.0
        return float(optimize.brentq(self._residual, lo, hi, xtol=1e-12))
