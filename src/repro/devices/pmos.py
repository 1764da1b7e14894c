"""PMOS device support via complementary mapping.

The paper analyzes the ground rail only and notes that "the SSN at the
power-supply node can be analyzed similarly."  Making that sentence
executable requires a PMOS pull-up device.  Rather than duplicating the
short-channel physics, :class:`ComplementaryMosfet` maps a PMOS onto an
NMOS-parameterized inner model by the usual sign symmetry:

    Id_pmos(vgs, vds, vbs) = -Id_inner(-vgs, -vds, -vbs)

where ``Id_pmos`` keeps the drain->source reference of the common device
interface (so a conducting pull-up, with vgs and vds negative, reports a
*negative* drain current: conventional current flows source -> drain,
from the VDD rail into the output).  The inner model's parameters are the
PMOS magnitudes (|Vth|, hole mobility, hole saturation field).

The mapping is exact, so every result derived for ground bounce (ASDM
fit, Eqns 6-10, Table 1) transfers to VDD droop by duality — which is
precisely the paper's claim, and what :mod:`repro.core.ssn_power` plus the
power-rail experiments verify.
"""

from __future__ import annotations

from .base import MosfetModel, OperatingPoint, ensure_arrays
from .bsim_like import BsimLikeMosfet, BsimLikeParameters


class ComplementaryMosfet(MosfetModel):
    """A P-channel device expressed through an N-channel inner model."""

    name = "pmos"

    def __init__(self, inner: MosfetModel):
        self.inner = inner

    def ids(self, vgs, vds, vbs=0.0):
        vgs, vds, vbs = ensure_arrays(vgs, vds, vbs)
        out = self.inner.ids(-vgs, -vds, -vbs)
        if isinstance(out, float) or out.ndim == 0:
            return -float(out)
        return -out

    def ids_scalar(self, vgs: float, vds: float, vbs: float = 0.0) -> float:
        return -self.inner.ids_scalar(-vgs, -vds, -vbs)

    # The mirror negates both the current and every terminal voltage, so the
    # conductances carry over unchanged: d/dv [-f(-v)] = f'(-v).

    def partials(self, vgs: float, vds: float, vbs: float = 0.0) -> OperatingPoint:
        op = self.inner.partials(-vgs, -vds, -vbs)
        return OperatingPoint(-op.ids, op.gm, op.gds, op.gmbs)

    def partials_array(self, vgs, vds, vbs=0.0) -> OperatingPoint:
        vgs, vds, vbs = ensure_arrays(vgs, vds, vbs)
        op = self.inner.partials_array(-vgs, -vds, -vbs)
        return OperatingPoint(-op.ids, op.gm, op.gds, op.gmbs)

    @property
    def params(self):
        """The inner (magnitude-space) parameters."""
        return self.inner.params


def pmos_from_parameters(params: BsimLikeParameters) -> ComplementaryMosfet:
    """A golden PMOS from magnitude-space short-channel parameters."""
    return ComplementaryMosfet(BsimLikeMosfet(params))
