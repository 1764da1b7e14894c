"""Application-specific device model (ASDM) — paper Section 2, Eqn (3).

For SSN estimation only one bias family matters: the driver's pull-down
NFET with its drain held high (the output pad has a large load and stays
near VDD while the input rises) and its source *and bulk* riding on the
bouncing internal ground node.  In that region the drain current of a
short-channel device is, empirically, linear in both the gate and source
voltages:

    Id(Vg, Vs) = K * (Vg - V0 - lambda * Vs),    clamped at zero      (Eqn 3)

* ``K``      [A/V]  — transconductance slope of the Id-Vg curves.
* ``V0``     [V]    — *effective* turn-on offset.  Not the threshold
  voltage: the paper stresses V0 = 0.61 V for a 0.18 um NFET whose Vth is
  about 0.5 V.  It is whatever intercept makes the linear model match the
  strongly-on region, where all the SSN current lives.
* ``lambda`` [-]    — source sensitivity; > 1 in real processes because
  raising the source both reduces Vgs one-for-one and raises the threshold
  through the body effect.

Trading generality for this single region is what yields closed-form SSN
solutions with *no further approximation* — the paper's central move.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..devices.base import MosfetModel, OperatingPoint, ensure_arrays


@dataclasses.dataclass(frozen=True)
class AsdmParameters:
    """Fitted parameters of the ASDM linear drain-current model.

    Attributes:
        k: transconductance slope in A/V (per device, absorbs width).
        v0: effective turn-on offset voltage in volts.
        lam: source-voltage sensitivity (dimensionless, > 1 physically).
    """

    k: float
    v0: float
    lam: float

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError(f"ASDM slope K must be positive, got {self.k}")
        if self.lam <= 0:
            raise ValueError(f"ASDM lambda must be positive, got {self.lam}")
        if self.v0 < 0:
            raise ValueError(f"ASDM offset V0 must be non-negative, got {self.v0}")

    def scaled(self, factor: float) -> "AsdmParameters":
        """Parameters of ``factor`` parallel copies of this device.

        K scales with width; V0 and lambda are width-independent.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return dataclasses.replace(self, k=self.k * factor)

    def drain_current(self, vg, vs=0.0):
        """Eqn (3) with the cutoff clamp; accepts scalars or arrays."""
        vg, vs = ensure_arrays(vg, vs)
        out = self.k * np.maximum(vg - self.v0 - self.lam * vs, 0.0)
        if out.ndim == 0:
            return float(out)
        return out

    def turn_on_gate_voltage(self, vs=0.0):
        """Gate voltage where the model starts conducting: V0 + lambda*Vs."""
        return self.v0 + self.lam * np.asarray(vs, dtype=float)


class AsdmMosfet(MosfetModel):
    """ASDM wrapped in the common device interface.

    Eqn (3) is written in *absolute* gate and source voltages for a device
    whose drain sits at the rail: ``Id = K*(Vg - V0 - lambda*Vs)``.  A
    terminal-wise device model only sees differences, but in the intended
    application ``Vs = vdd - vds``, so the source voltage is recoverable
    given the drain rail.  Substituting:

        Id = K * (vgs - V0 - (lambda - 1) * (vdd - vds))

    which is exact whenever the drain is at ``vdd`` (the ASDM validity
    region) and degrades gracefully nearby.  Exposing this as a
    :class:`MosfetModel` lets the circuit simulator run ablations with the
    paper's model in the loop.

    The source estimate ``vdd - vds`` is not clamped at zero, so the
    turn-on is the model's only kink, and the conductances are analytic
    (a finite difference straddling the kink stalls Newton there).
    """

    name = "asdm"

    def __init__(self, params: AsdmParameters, vdd: float):
        if vdd <= 0:
            raise ValueError("vdd must be positive")
        self.params = params
        self.vdd = vdd

    def ids(self, vgs, vds, vbs=0.0):
        vgs, vds, vbs = ensure_arrays(vgs, vds, vbs)
        out = self.partials(vgs, vds, vbs).ids
        if out.ndim == 0:
            return float(out)
        return out

    def partials(self, vgs, vds, vbs=0.0) -> OperatingPoint:
        """Eqn (3) with ``gm = K``, ``gds = K*(lambda - 1)``, ``gmbs = 0``.

        All four are zero in cutoff or for ``vds <= 0``.  Written in
        float-or-array arithmetic, so it also serves as
        :meth:`partials_array` for the batched engine.
        """
        p = self.params
        overdrive = vgs - p.v0 - (p.lam - 1.0) * (self.vdd - vds)
        on = (vds > 0.0) & (overdrive > 0.0)
        return OperatingPoint(ids=on * (p.k * overdrive), gm=on * p.k,
                              gds=on * (p.k * (p.lam - 1.0)), gmbs=0.0 * on)

    partials_array = partials
