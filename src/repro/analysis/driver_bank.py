"""Construction of the N-driver SSN validation circuit (paper Fig. 2 setup).

The circuit the paper simulates in HSPICE:

* a shared input ramp 0 -> VDD over ``rise_time`` driving every gate,
* N identical pull-down NFETs, drains on their own output pads,
* each pad loaded by a large capacitor initially charged to VDD,
* all sources and bulks tied to the *internal* ground node,
* the internal ground tied to the true ground through the package
  parasitics: L alone (Section 3) or L plus a shunt C (Section 4), with an
  optional series R (which the paper argues is negligible — we keep it as a
  knob so that claim can be tested, see the ablation benchmark).

Because the drivers are identical they may be *collapsed* into a single
device of N-fold width driving an N-fold load — mathematically exact and
linearly faster to simulate.  ``collapse=False`` keeps N explicit devices;
the equivalence is verified in the integration tests.
"""

from __future__ import annotations

import dataclasses
import math

from ..process.technology import Technology
from ..spice.circuit import Circuit
from ..spice.sources import Ramp

#: Node names used by the generated netlist.
INPUT_NODE = "in"
GROUND_BOUNCE_NODE = "ssn"
OUTPUT_NODE_FMT = "out{index}"
INDUCTOR_NAME = "Lgnd"
CAPACITOR_NAME = "Cgnd"
RESISTOR_NAME = "Rgnd"


@dataclasses.dataclass(frozen=True)
class DriverBankSpec:
    """Everything needed to build and simulate one SSN validation circuit.

    Attributes:
        technology: process card supplying VDD and the golden device.
        n_drivers: number of simultaneously switching output drivers.
        inductance: ground-path inductance in henries.
        rise_time: input ramp 0 -> VDD duration in seconds.
        capacitance: ground-path shunt capacitance in farads, or None for
            the Section-3 inductance-only network.
        resistance: ground-path series resistance in ohms (0 disables).
        load_capacitance: per-driver output load in farads.
        driver_strength: driver width as a multiple of the technology's
            reference output-driver width.
        collapse: merge the identical drivers into one scaled device.
        input_offsets: optional per-driver input-ramp start times in
            seconds (length n_drivers).  When set, each driver gets its
            own input source and ``collapse`` is ignored — this is the
            harness for verifying skewed (staggered) launch schedules.
    """

    technology: Technology
    n_drivers: int
    inductance: float
    rise_time: float
    capacitance: float | None = None
    resistance: float = 0.0
    load_capacitance: float = 10e-12
    driver_strength: float = 1.0
    collapse: bool = True
    input_offsets: tuple[float, ...] | None = None

    #: Float fields that must be finite (``nan <= 0`` is False, so the sign
    #: checks below would let NaN through to the engine).
    _FLOAT_FIELDS = ("inductance", "rise_time", "capacitance", "resistance",
                     "load_capacitance", "driver_strength")

    def __post_init__(self):
        for name in self._FLOAT_FIELDS:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if self.n_drivers <= 0:
            raise ValueError("n_drivers must be positive")
        if self.inductance <= 0:
            raise ValueError("inductance must be positive")
        if self.capacitance is not None and self.capacitance <= 0:
            raise ValueError("capacitance must be positive (or None to omit)")
        if self.resistance < 0:
            raise ValueError("resistance must be non-negative")
        if self.rise_time <= 0 or self.load_capacitance <= 0:
            raise ValueError("rise_time and load_capacitance must be positive")
        if self.driver_strength <= 0:
            raise ValueError("driver_strength must be positive")
        if self.input_offsets is not None:
            if len(self.input_offsets) != self.n_drivers:
                raise ValueError(
                    f"input_offsets has {len(self.input_offsets)} entries "
                    f"for {self.n_drivers} drivers"
                )
            if not all(math.isfinite(offset) for offset in self.input_offsets):
                raise ValueError("input offsets must be finite")
            if any(offset < 0 for offset in self.input_offsets):
                raise ValueError("input offsets must be non-negative")

    @property
    def slope(self) -> float:
        """Input ramp slope sr = VDD / tr."""
        return self.technology.vdd / self.rise_time

    def driver_names(self) -> list[str]:
        """Names of the MOSFET elements present in the built circuit."""
        if self.collapse and self.input_offsets is None:
            return ["M1"]
        return [f"M{i + 1}" for i in range(self.n_drivers)]


def build_driver_bank(spec: DriverBankSpec) -> Circuit:
    """Build the SSN validation netlist for a spec.

    The ground-path topology is: ``ssn`` --L-- (--R--) ``0`` with the shunt
    C from ``ssn`` straight to true ground, matching the paper's Eqns
    (11)-(12) where the capacitor current bypasses the inductor.
    """
    tech = spec.technology
    vdd = tech.vdd
    circuit = Circuit(
        f"{spec.n_drivers}-driver SSN bank, {tech.name}, "
        f"L={spec.inductance:.3g} C={spec.capacitance or 0:.3g}"
    )
    if spec.input_offsets is None:
        circuit.vsource("Vin", INPUT_NODE, "0", Ramp(0.0, vdd, 0.0, spec.rise_time))
    else:
        for i, offset in enumerate(spec.input_offsets):
            circuit.vsource(
                f"Vin{i + 1}", f"{INPUT_NODE}{i + 1}", "0",
                Ramp(0.0, vdd, offset, spec.rise_time),
            )

    inductor_bottom = "0"
    if spec.resistance > 0:
        inductor_bottom = "lr_mid"
        circuit.resistor(RESISTOR_NAME, inductor_bottom, "0", spec.resistance)
    circuit.inductor(INDUCTOR_NAME, GROUND_BOUNCE_NODE, inductor_bottom, spec.inductance, ic=0.0)
    if spec.capacitance is not None:
        circuit.capacitor(CAPACITOR_NAME, GROUND_BOUNCE_NODE, "0", spec.capacitance, ic=0.0)

    if spec.collapse and spec.input_offsets is None:
        device = tech.driver_device(spec.driver_strength * spec.n_drivers)
        out = OUTPUT_NODE_FMT.format(index=1)
        circuit.capacitor("CL1", out, "0", spec.load_capacitance * spec.n_drivers, ic=vdd)
        circuit.mosfet("M1", out, INPUT_NODE, GROUND_BOUNCE_NODE, GROUND_BOUNCE_NODE, device)
    else:
        device = tech.driver_device(spec.driver_strength)
        for i in range(spec.n_drivers):
            out = OUTPUT_NODE_FMT.format(index=i + 1)
            gate = INPUT_NODE if spec.input_offsets is None else f"{INPUT_NODE}{i + 1}"
            circuit.capacitor(f"CL{i + 1}", out, "0", spec.load_capacitance, ic=vdd)
            circuit.mosfet(
                f"M{i + 1}", out, gate, GROUND_BOUNCE_NODE, GROUND_BOUNCE_NODE, device
            )
    return circuit
