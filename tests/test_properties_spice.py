"""Property-based tests (hypothesis) for the circuit simulator."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spice import Circuit, Dc, Ramp, Waveform, dc_operating_point, transient
from repro.spice.elements import Element
from repro.spice.mna import MnaSystem

resistances = st.floats(min_value=10.0, max_value=1e5)
capacitances = st.floats(min_value=0.1e-12, max_value=10e-12)
inductances = st.floats(min_value=0.5e-9, max_value=20e-9)
voltages = st.floats(min_value=-5.0, max_value=5.0)


class TestDcProperties:
    @settings(max_examples=50, deadline=None)
    @given(r1=resistances, r2=resistances, v=voltages)
    def test_divider_ratio(self, r1, r2, v):
        c = Circuit()
        c.vsource("V1", "top", "0", Dc(v))
        c.resistor("R1", "top", "mid", r1)
        c.resistor("R2", "mid", "0", r2)
        sol = dc_operating_point(c)
        assert sol.voltage("mid") == pytest.approx(v * r2 / (r1 + r2), rel=1e-9, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(r=resistances, v=voltages)
    def test_kcl_at_source(self, r, v):
        c = Circuit()
        c.vsource("V1", "a", "0", Dc(v))
        c.resistor("R1", "a", "0", r)
        sol = dc_operating_point(c)
        assert sol.current("V1") == pytest.approx(-v / r, rel=1e-9, abs=1e-15)


class TestTransientProperties:
    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(100.0, 10e3), cap=capacitances, v0=st.floats(0.1, 3.0))
    def test_rc_discharge_exponential(self, r, cap, v0):
        tau = r * cap
        c = Circuit()
        c.resistor("R1", "a", "0", r)
        c.capacitor("C1", "a", "0", cap, ic=v0)
        res = transient(c, 3 * tau, tau / 200)
        v = res.voltage("a")
        assert v.value_at(tau) == pytest.approx(v0 * np.exp(-1), rel=2e-3)
        assert v.value_at(3 * tau) == pytest.approx(v0 * np.exp(-3), rel=2e-2)

    @settings(max_examples=20, deadline=None)
    @given(r=st.floats(5.0, 200.0), l=inductances, cap=capacitances)
    def test_rlc_final_value(self, r, l, cap):
        """Any series RLC driven by a DC step settles at the step value."""
        c = Circuit()
        c.vsource("V1", "in", "0", Ramp(0, 1.0, 0, 1e-12))
        c.resistor("R1", "in", "m", r)
        c.inductor("L1", "m", "o", l)
        c.capacitor("C1", "o", "0", cap, ic=0.0)
        period = 2 * np.pi * np.sqrt(l * cap)
        decay = max(2 * l / r, r * cap)
        tstop = max(20 * decay, 5 * period)
        res = transient(c, tstop, min(period / 60, tstop / 400))
        assert res.voltage("o").value_at(tstop) == pytest.approx(1.0, abs=0.02)

    @settings(max_examples=20, deadline=None)
    @given(cap=capacitances, v0=st.floats(0.5, 3.0))
    def test_charge_conservation_two_capacitors(self, cap, v0):
        """Charge sharing through a resistor conserves total charge."""
        c = Circuit()
        c.capacitor("C1", "a", "0", cap, ic=v0)
        c.capacitor("C2", "b", "0", cap, ic=0.0)
        c.resistor("R1", "a", "b", 1e3)
        tau = 1e3 * cap / 2
        res = transient(c, 10 * tau, tau / 100)
        va = res.voltage("a").value_at(10 * tau)
        vb = res.voltage("b").value_at(10 * tau)
        assert va == pytest.approx(v0 / 2, rel=5e-3)
        assert vb == pytest.approx(v0 / 2, rel=5e-3)


class TestWaveformProperties:
    @settings(max_examples=50)
    @given(
        st.lists(st.floats(-10, 10), min_size=2, max_size=40),
        st.floats(0.1, 10.0),
    )
    def test_peak_is_max_sample(self, values, dt):
        t = np.arange(len(values)) * dt
        w = Waveform(t, np.array(values))
        _, peak = w.peak()
        assert peak == max(values)

    @settings(max_examples=50)
    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=40))
    def test_interpolation_bounded_by_neighbors(self, values):
        t = np.arange(len(values), dtype=float)
        w = Waveform(t, np.array(values))
        mid = w.value_at(1.5)
        assert min(values[1], values[2]) - 1e-12 <= mid <= max(values[1], values[2]) + 1e-12

    @settings(max_examples=30)
    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=30))
    def test_integral_additive_over_windows(self, values):
        t = np.linspace(0, 1, len(values))
        w = Waveform(t, np.array(values))
        if len(values) < 4:
            return
        total = w.integral()
        split = w.window(0, 0.5).integral() + w.window(0.5, 1.0).integral()
        assert split == pytest.approx(total, rel=1e-9, abs=1e-9)


# -- accumulated device stamps ---------------------------------------------------

def _bits(u: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", u))[0]


# Signed zeros, subnormals, overflow, infinities, and NaNs of both signs and
# two payloads: which NaN survives a NaN + NaN depends on operand order.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308,
            math.inf, -math.inf, math.nan, -math.nan,
            _bits(0x7FF8000000000001), _bits(0xFFF8000000000002)]
stamp_values = st.one_of(st.sampled_from(_SPECIAL), st.floats())


class _BaseStamp(Element):
    """Writes a given base ``(A, z)`` verbatim (signed zeros and NaN
    payloads included)."""

    def __init__(self, A, z):
        super().__init__("base", ())
        self.A0, self.z0 = A, z

    def stamp(self, ctx) -> None:
        if ctx.A is not None:
            ctx.A[...] = self.A0
        ctx.z[...] = self.z0


class _Device(Element):
    """A nonlinear element whose iterate stamp is one ``add_entries`` call
    and a list of right-hand-side currents at its own nodes."""

    nonlinear = True

    def __init__(self, name, nodes, entries, values, currents):
        super().__init__(name, nodes)
        self.entries, self.values, self.currents = entries, values, currents

    def stamp(self, ctx) -> None:
        pass

    def stamp_iterate(self, ctx) -> None:
        ctx.add_entries(self.entries, self.values)
        for frm, to, i in self.currents:
            ctx.add_rhs_current(frm, to, i)


@st.composite
def stamped_systems(draw):
    """A base ``(A, z)`` and up to four devices over a 1-5 unknown system,
    with repeated ``(row, col)`` pairs within and across devices."""
    n = draw(st.integers(1, 5))
    base_A = np.array(draw(st.lists(stamp_values, min_size=n * n, max_size=n * n)))
    base_z = np.array(draw(st.lists(stamp_values, min_size=n, max_size=n)))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    devices = []
    for d in range(draw(st.integers(1, 4))):
        nodes = tuple(draw(st.lists(st.integers(0, n), min_size=1, max_size=4)))
        values = tuple(draw(st.lists(stamp_values, min_size=1, max_size=8)))
        entries = tuple((rc, draw(st.integers(0, len(values) - 1)))
                        for rc in draw(st.lists(pairs, max_size=10)))
        terminal = st.sampled_from((0,) + nodes)
        currents = draw(st.lists(st.tuples(terminal, terminal, stamp_values),
                                 max_size=3))
        devices.append((f"M{d}", nodes, entries, values, currents))
    return n, base_A.reshape(n, n), base_z, devices


class TestAccumulatedStamps:
    @settings(max_examples=300, deadline=None)
    @given(case=stamped_systems())
    def test_equals_sequential_writes(self, case):
        """``stamp_iterate``'s float accumulation lands exactly the bytes
        the sequential ``A[rc] += v`` / ``z[r] -= i``, ``z[r] += i`` writes
        give, from the same base, in device order."""
        n, base_A, base_z, devices = case
        c = Circuit()
        for k in range(n):
            c.node(f"n{k}")
        c.add(_BaseStamp(base_A, base_z))
        for spec in devices:
            c.add(_Device(*spec))
        system = MnaSystem(c)
        x = np.zeros(n)
        ctx = system.stamp_base("tran", 0.0, 1e-12, "be", {}, x, 0.0)
        A, z = system.stamp_iterate(ctx, x)

        ref_A, ref_z = base_A.copy(), base_z.copy()
        with np.errstate(all="ignore"):
            for _, _, entries, values, currents in devices:
                for rc, k in entries:
                    ref_A[rc] += values[k]
                for frm, to, i in currents:
                    if frm != 0:
                        ref_z[frm - 1] -= i
                    if to != 0:
                        ref_z[to - 1] += i
        assert A.tobytes() == ref_A.tobytes()
        assert z.tobytes() == ref_z.tobytes()
        # The accumulators close with the pass: later writes are direct.
        ctx.add_rhs_current(0, 1, 1.0)
        with np.errstate(all="ignore"):
            ref_z[0] += 1.0
        assert z.tobytes() == ref_z.tobytes()
