"""Synthetic large-N netlist generators for engine parity checks.

The SSN driver banks of the paper top out at tens of unknowns, so the
engine-parity harness (``scripts/engine_parity.py``) and the dense
large-system tests (``tests/test_spice_dense_ladder.py``) build their large
systems here: RC/RLC transmission-line ladders in the spirit of the
interconnect crosstalk networks of Hunagund & Kalpana (PAPERS.md), with an
optional MOSFET driver at the head so the Newton loop actually iterates
(a purely linear ladder collapses to one cached factorization per step and
would not exercise the per-iterate factorization path at all).

These are *generators*, not fixtures: they live in the package so every
caller builds bitwise identical circuits from the same parameters.
"""

from __future__ import annotations

from ..devices.bsim_like import BsimLikeMosfet, BsimLikeParameters
from ..spice import Circuit, Ramp


def ladder_circuit(
    sections: int,
    resistance: float = 25.0,
    capacitance: float = 0.05e-12,
    vdd: float = 1.8,
    rise_time: float = 0.2e-9,
    driver: bool = True,
    width: float = 40e-6,
) -> Circuit:
    """An N-section RC ladder, optionally driven through a MOSFET.

    With ``driver=True`` (the default) the input ramp drives the gate of
    an NMOS whose drain feeds the ladder head through a pull-up resistor —
    one nonlinear device, so every transient step runs real Newton
    iterations over the full matrix.  With ``driver=False`` the ramp drives
    the ladder head directly and the circuit is purely linear (the cached-
    factorization fast path).

    The circuit has ``sections + 2`` nodes plus one branch unknown (the
    source), so ``sections=500`` exercises a ~503-unknown system — the
    regime where the dense O(n^3) per-step cost dominates a transient run.

    Args:
        sections: number of RC sections (>= 1).
        resistance: series resistance per section in ohms.
        capacitance: shunt capacitance per section in farads.
        vdd: supply/ramp amplitude in volts.
        rise_time: input ramp rise time in seconds.
        driver: insert the MOSFET driver stage at the ladder head.
        width: driver channel width in meters (ignored without ``driver``).

    Returns:
        The assembled :class:`~repro.spice.Circuit`.
    """
    if sections < 1:
        raise ValueError("a ladder needs at least one section")
    c = Circuit(f"ladder-{sections}")
    c.vsource("Vin", "in", "0", Ramp(0.0, vdd, 0.1e-9, rise_time))
    head = "n0"
    if driver:
        # Inverter-style stage: ramp on the gate, drain loaded by a pull-up
        # modeled as a resistor to a DC-stiff node held by the source value
        # at t=0 (keeps the topology source+R+M without a second source).
        model = BsimLikeMosfet(BsimLikeParameters(w=width))
        c.resistor("Rpu", "in", head, 2e3)
        c.mosfet("M1", head, "in", "0", "0", model)
    else:
        head = "in"
    prev = head
    for k in range(1, sections + 1):
        node = f"n{k}"
        c.resistor(f"R{k}", prev, node, resistance)
        c.capacitor(f"C{k}", node, "0", capacitance, ic=0.0)
        prev = node
    return c
