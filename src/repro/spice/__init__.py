"""Minimal SPICE-class circuit simulator (the HSPICE substitute).

Dense MNA, damped Newton-Raphson, trapezoidal/backward-Euler transient with
breakpoint handling — everything the paper's validation circuits need, and
nothing proprietary.  Public surface:

* :class:`Circuit` — netlist builder.
* :func:`dc_operating_point` — DC analysis.
* :func:`transient` — transient analysis returning :class:`Waveform` s.
* source shapes: :class:`Dc`, :class:`Ramp`, :class:`Pulse`, :class:`Pwl`.
"""

from .ac import AcResult, ac_analysis, driving_point_impedance
from .batch import BatchIncompatibleError, batch_transient, lockstep_signature
from .circuit import Circuit
from .dc import DcSolution, dc_operating_point
from .elements import MutualInductance
from .netlist import from_spice, to_spice
from .solver import ConvergenceError
from .sources import Dc, Pulse, Pwl, Ramp, SourceShape
from .telemetry import SolverTelemetry
from .transient import TransientOptions, TransientResult, transient
from .waveform import Waveform

__all__ = [
    "AcResult",
    "BatchIncompatibleError",
    "Circuit",
    "ConvergenceError",
    "Dc",
    "DcSolution",
    "MutualInductance",
    "Pulse",
    "Pwl",
    "Ramp",
    "SolverTelemetry",
    "SourceShape",
    "TransientOptions",
    "TransientResult",
    "Waveform",
    "ac_analysis",
    "batch_transient",
    "dc_operating_point",
    "driving_point_impedance",
    "from_spice",
    "lockstep_signature",
    "to_spice",
    "transient",
]
