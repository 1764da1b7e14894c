"""AC small-signal analysis.

Linearizes the circuit at a bias point (MOSFETs contribute their gm/gds/
gmbs at that bias) and solves the complex MNA system over a frequency
grid.  The SSN-relevant use is the *ground-path impedance*: inject a unit
AC current into the internal ground node and read the voltage — the
classic power-delivery-network view.  The LC network of the paper's
Section 4 shows up as a resonance at ``f0 = 1/(2*pi*sqrt(LC))`` whose
peaking tracks the damping regions of Eqn (27).

There is no AC stamp of its own: the complex matrix is the transient
engine's, assembled through the element classes in ``"tran"`` mode with
backward-Euler companions at the complex step ``dt = 1/(j*omega)``, with
zero companion history, and linearized at the DC bias.  A backward-Euler
companion at that step *is* the admittance (``C/dt = j*omega*C``,
``L/dt = j*omega*L``), so every element the transient engine stamps —
R, L, C, mutual inductance, MOSFETs, and V/I sources (AC-shorted/opened
unless designated as the stimulus) — gets AC for free.  The right-hand
side is only the stimulus excitation; no DC source value enters it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .circuit import Circuit
from .dc import dc_operating_point
from .mna import MnaSystem


@dataclasses.dataclass(frozen=True)
class AcResult:
    """Complex node responses over the analyzed frequency grid.

    Attributes:
        frequencies: analysis frequencies in hertz.
        responses: node name -> complex response array (phasor per
            frequency) for every non-ground node.
    """

    frequencies: np.ndarray
    responses: dict[str, np.ndarray]

    def voltage(self, node_name: str) -> np.ndarray:
        """Complex phasor of one node across the grid."""
        if node_name not in self.responses:
            known = ", ".join(sorted(self.responses))
            raise KeyError(f"unknown node {node_name!r}; known nodes: {known}")
        return self.responses[node_name]

    def magnitude(self, node_name: str) -> np.ndarray:
        return np.abs(self.voltage(node_name))

    def phase(self, node_name: str) -> np.ndarray:
        """Phase in radians."""
        return np.angle(self.voltage(node_name))


def ac_analysis(
    circuit: Circuit,
    frequencies,
    stimulus: str,
    stimulus_value: complex = 1.0,
    bias_time: float | None = 0.0,
) -> AcResult:
    """Small-signal frequency sweep.

    Args:
        circuit: the netlist.  Non-stimulus V-sources are AC-shorted and
            I-sources AC-opened, per standard practice.
        frequencies: analysis frequencies in hertz (array-like, finite
            and > 0).
        stimulus: name of the V- or I-source carrying the AC excitation.
        stimulus_value: complex amplitude of the excitation (1.0 default).
        bias_time: evaluate the DC operating point at this source time to
            linearize nonlinear devices; None linearizes at 0 V everywhere
            (useful for purely passive networks).

    Returns:
        Complex node responses per frequency.
    """
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    if not np.all(np.isfinite(freqs) & (freqs > 0)):
        raise ValueError("AC frequencies must be positive and finite")
    source = circuit.element(stimulus)  # raises KeyError for unknown stimulus
    if not hasattr(source, "shape"):
        raise ValueError(f"AC stimulus {stimulus!r} is not a V or I source")

    system = MnaSystem(circuit)
    n = system.size
    if bias_time is None:
        bias = np.zeros(n)
    else:
        bias = dc_operating_point(circuit, t=bias_time).unknowns
    # Zero companion history: the companions' history currents vanish and
    # only their admittances remain.
    states = {el: {"v": 0.0, "i": 0.0} for el in circuit.elements}
    A = np.empty((n, n), dtype=complex)
    z = np.empty(n, dtype=complex)

    names = [name for name in circuit.node_names if name != "0"]
    out = {name: np.empty(len(freqs), dtype=complex) for name in names}
    for i, f in enumerate(freqs):
        # Source values stamped at t = 0 land in z, which is rebuilt below.
        ctx = system.context("tran", 0.0, 1.0 / (2j * np.pi * f), "be", states,
                             bias, gmin=0.0, buffers=(A, z))
        system.assemble_base(ctx)
        system.assemble_nonlinear(ctx)
        # The excitation alone: a voltage source drives its branch row, a
        # current source its node pair.
        z[:] = 0.0
        if source.nbranches:
            ctx.set_branch_rhs(ctx.branch_row(source), stimulus_value)
        else:
            ctx.add_rhs_current(*source.nodes, stimulus_value)
        x = np.linalg.solve(A, z)
        for name in names:
            out[name][i] = x[circuit.node_id(name) - 1]
    return AcResult(frequencies=freqs, responses=out)


def driving_point_impedance(
    circuit: Circuit,
    frequencies,
    node: str,
    probe_name: str = "_Zprobe",
    bias_time: float | None = 0.0,
) -> np.ndarray:
    """Complex driving-point impedance seen into ``node`` vs frequency.

    Temporarily injects a 1 A AC current source from ground into the node;
    the node phasor then *is* the impedance.  The probe is appended to the
    circuit's element list for the call and removed afterwards.
    """
    circuit.isource(probe_name, "0", node, 0.0)
    try:
        result = ac_analysis(circuit, frequencies, probe_name, 1.0, bias_time)
        return result.voltage(node)
    finally:
        circuit.remove(probe_name)
