"""Common interface for MOSFET drain-current models.

Every SSN estimator in this repository — the paper's ASDM model, the
alpha-power-law baselines, and the golden circuit simulator — consumes a
MOSFET model through this interface.  A model maps terminal voltages to the
drain current ``Id`` and (for the circuit simulator's Newton iteration) to
the small-signal conductances

* ``gm``   = dId/dVgs   (transconductance),
* ``gds``  = dId/dVds   (output conductance),
* ``gmbs`` = dId/dVbs   (body transconductance).

Voltages follow the usual NMOS convention: ``vgs``, ``vds`` and ``vbs`` are
gate, drain and bulk potentials referred to the source.  Models must be
defined (and finite) for all real inputs; cutoff regions return 0 current.

The models the circuit simulator stamps (the golden short-channel model, its
PMOS mirror and the paper's ASDM model) override :meth:`partials` and
:meth:`partials_array` with analytic derivatives: one device evaluation per
stamp.  Other models inherit the central finite-difference default, seven
evaluations per stamp, which is accurate enough for Newton convergence on
the well-scaled circuits used here.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

#: Perturbation used by the finite-difference default of ``partials``.
_FD_STEP = 1e-6
#: Bias offsets of the stacked finite-difference rows of ``partials_array``
#: (rows: vgs, vds, vbs; columns: center, then +/- on each terminal in turn).
_FD_OFFSETS = _FD_STEP * np.array([
    [0.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -1.0],
])


@dataclasses.dataclass(frozen=True)
class OperatingPoint:
    """Drain current and its partial derivatives at one bias point."""

    ids: float
    gm: float
    gds: float
    gmbs: float


class MosfetModel(abc.ABC):
    """Abstract NMOS drain-current model ``Id(vgs, vds, vbs)``."""

    #: Human-readable model name used in reports and experiment tables.
    name: str = "mosfet"

    @abc.abstractmethod
    def ids(self, vgs, vds, vbs=0.0):
        """Drain current in amperes.

        Accepts scalars or numpy arrays (broadcast together) and returns the
        same shape.  Must never return negative current for ``vds >= 0``.
        """

    def ids_scalar(self, vgs: float, vds: float, vbs: float = 0.0) -> float:
        """Drain current at one scalar bias point.

        Semantically identical to ``float(self.ids(...))``; subclasses may
        override with a pure-``math`` implementation to skip the numpy
        broadcast machinery, which dominates the circuit simulator's Newton
        assembly cost on scalar inputs.
        """
        return float(self.ids(vgs, vds, vbs))

    def partials(self, vgs: float, vds: float, vbs: float = 0.0) -> OperatingPoint:
        """Current and conductances at a scalar bias point.

        The default implementation uses central finite differences on
        :meth:`ids_scalar`; override for analytic derivatives.
        """
        h = _FD_STEP
        f = self.ids_scalar
        ids = f(vgs, vds, vbs)
        gm = (f(vgs + h, vds, vbs) - f(vgs - h, vds, vbs)) / (2 * h)
        gds = (f(vgs, vds + h, vbs) - f(vgs, vds - h, vbs)) / (2 * h)
        gmbs = (f(vgs, vds, vbs + h) - f(vgs, vds, vbs - h)) / (2 * h)
        return OperatingPoint(ids=ids, gm=gm, gds=gds, gmbs=gmbs)

    def partials_array(self, vgs, vds, vbs=0.0) -> OperatingPoint:
        """Array-in/array-out operating points over a batch of bias points.

        The default is central finite differences through the vectorized
        :meth:`ids` with the same step as the scalar :meth:`partials`, so a
        batched engine's Newton iterates track the scalar engine's to
        floating-point noise.  The seven bias evaluations (center plus six
        perturbed) are stacked into one ``(7, B)`` call, built per call, so
        the model's elementwise math runs once per iterate instead of seven
        times.

        Returns an :class:`OperatingPoint` whose fields are arrays shaped
        like the broadcast inputs.
        """
        h = _FD_STEP
        vgs, vds, vbs = ensure_arrays(vgs, vds, vbs)
        rows = (slice(None),) + (None,) * vgs.ndim
        i = np.asarray(self.ids(vgs + _FD_OFFSETS[0][rows], vds + _FD_OFFSETS[1][rows],
                                vbs + _FD_OFFSETS[2][rows]), dtype=float)
        return OperatingPoint(
            ids=i[0],
            gm=(i[1] - i[2]) / (2 * h),
            gds=(i[3] - i[4]) / (2 * h),
            gmbs=(i[5] - i[6]) / (2 * h),
        )

    def saturation_current(self, vgs, vds_high, vbs=0.0):
        """Convenience alias: current with the drain held at a high rail.

        SSN modeling evaluates devices with the drain at (or near) VDD while
        the source bounces; several callers read better with this name.
        """
        return self.ids(vgs, vds_high, vbs)


def ensure_arrays(*values):
    """Broadcast heterogeneous scalar/array inputs to common float arrays."""
    arrays = np.broadcast_arrays(*[np.asarray(v, dtype=float) for v in values])
    return [np.array(a, dtype=float) for a in arrays]
