"""Transient-engine tests against analytic RC/RL/RLC solutions."""

import numpy as np
import pytest

from repro.spice import Circuit, Dc, Pulse, Ramp, TransientOptions, transient
from repro.spice.batch import batch_transient

NAN, INF = float("nan"), float("inf")


class TestRc:
    def test_discharge_matches_exponential(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=1.0)
        res = transient(c, 5e-9, 1e-11)
        v = res.voltage("a")
        for t in (0.5e-9, 1e-9, 2e-9, 4e-9):
            assert v.value_at(t) == pytest.approx(np.exp(-t / 1e-9), abs=2e-4)

    def test_charge_through_resistor(self):
        c = Circuit()
        c.vsource("V1", "in", "0", Dc(1.0))
        c.resistor("R1", "in", "a", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=0.0)
        res = transient(c, 5e-9, 1e-11)
        v = res.voltage("a")
        assert v.value_at(1e-9) == pytest.approx(1 - np.exp(-1), abs=2e-4)
        assert v.value_at(5e-9) == pytest.approx(1.0, abs=1e-2)

    def test_capacitor_current_continuity(self):
        c = Circuit()
        c.vsource("V1", "in", "0", Ramp(0, 1, 0, 1e-9))
        c.capacitor("C1", "in", "0", 1e-12, ic=0.0)
        res = transient(c, 2e-9, 1e-11)
        i = res.current("C1")
        # During the ramp: i = C dV/dt = 1 mA; after: 0.
        assert i.value_at(0.5e-9) == pytest.approx(1e-3, rel=1e-3)
        assert abs(i.value_at(1.8e-9)) < 1e-6


class TestRl:
    def test_current_rise(self):
        c = Circuit()
        c.vsource("V1", "in", "0", Dc(1.0))
        c.resistor("R1", "in", "a", 10.0)
        c.inductor("L1", "a", "0", 10e-9)  # tau = 1 ns
        res = transient(c, 5e-9, 1e-11)
        i = res.current("L1")
        assert i.value_at(1e-9) == pytest.approx(0.1 * (1 - np.exp(-1)), rel=1e-3)
        assert i.value_at(5e-9) == pytest.approx(0.1, rel=1e-2)

    def test_initial_condition_respected(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 10.0)
        c.inductor("L1", "a", "0", 10e-9, ic=50e-3)
        res = transient(c, 3e-9, 1e-11)
        i = res.current("L1")
        assert abs(i.value_at(0.0)) == pytest.approx(50e-3, rel=1e-3)
        # L discharges into R with tau = L/R = 1 ns.
        assert abs(i.value_at(1e-9)) == pytest.approx(50e-3 * np.exp(-1), rel=5e-3)


class TestRlc:
    def test_underdamped_overshoot(self):
        """Series RLC step response vs the standard second-order formulas."""
        r, l, cap = 10.0, 5e-9, 1e-12
        c = Circuit()
        c.vsource("V1", "in", "0", Ramp(0, 1, 0, 1e-12))
        c.resistor("R1", "in", "m", r)
        c.inductor("L1", "m", "o", l)
        c.capacitor("C1", "o", "0", cap, ic=0.0)
        res = transient(c, 3e-9, 5e-13)
        zeta = (r / 2) * np.sqrt(cap / l)
        overshoot = 1 + np.exp(-np.pi * zeta / np.sqrt(1 - zeta**2))
        t_peak, v_peak = res.voltage("o").peak()
        assert v_peak == pytest.approx(overshoot, rel=2e-3)
        assert t_peak == pytest.approx(np.pi * np.sqrt(l * cap), rel=0.05)

    def test_energy_dissipates(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 100.0)
        c.inductor("L1", "a", "b", 5e-9)
        c.capacitor("C1", "b", "0", 1e-12, ic=1.0)
        res = transient(c, 20e-9, 1e-11)
        assert abs(res.voltage("b").value_at(20e-9)) < 1e-2


class TestEngine:
    def test_breakpoints_hit_exactly(self):
        c = Circuit()
        c.vsource("V1", "a", "0", Ramp(0, 1, 0.35e-9, 0.3e-9))
        c.resistor("R1", "a", "0", 1e3)
        res = transient(c, 1e-9, 1e-10)
        assert np.any(np.isclose(res.times, 0.35e-9, atol=1e-18))
        assert np.any(np.isclose(res.times, 0.65e-9, atol=1e-18))

    def test_pulse_roundtrip(self):
        c = Circuit()
        c.vsource("V1", "in", "0", Pulse(0, 1, 0.1e-9, 0.1e-9, 0.3e-9, 0.1e-9))
        c.resistor("R1", "in", "a", 1e3)
        c.capacitor("C1", "a", "0", 0.1e-12, ic=0.0)
        res = transient(c, 1.5e-9, 2e-12)
        v = res.voltage("a")
        assert v.value_at(0.45e-9) > 0.9
        assert v.value_at(1.5e-9) < 0.05

    def test_be_and_trap_agree(self):
        def run(method):
            c = Circuit()
            c.resistor("R1", "a", "0", 1e3)
            c.capacitor("C1", "a", "0", 1e-12, ic=1.0)
            return transient(c, 2e-9, 2e-12, options=TransientOptions(method=method))

        vt = run("trap").voltage("a")
        vb = run("be").voltage("a")
        assert vt.max_abs_difference(vb) < 5e-3

    def test_ground_voltage_is_zero(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=1.0)
        res = transient(c, 1e-9, 1e-11)
        assert np.all(res.voltage("0").y == 0.0)

    def test_unknown_current_name(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=1.0)
        res = transient(c, 1e-9, 1e-11)
        with pytest.raises(KeyError):
            res.current("R9")

    def test_invalid_times_rejected(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        with pytest.raises(ValueError):
            transient(c, 0.0, 1e-12)
        with pytest.raises(ValueError):
            transient(c, 1e-9, -1e-12)

    @pytest.mark.parametrize("engine", ["scalar", "batch"])
    @pytest.mark.parametrize("tstop, dt, tstart", [
        (1e-9, NAN, 0.0),   # the stepping loop would never finish
        (INF, 1e-12, 0.0),  # the stepping loop would never finish
        (NAN, 1e-12, 0.0),  # would silently return a one-sample result
        (1e-9, INF, 0.0),
        (1e-9, 1e-12, NAN),
        (1e-9, 1e-12, -INF),
    ])
    def test_non_finite_time_span_rejected(self, engine, tstop, dt, tstart):
        c = Circuit()
        c.vsource("V1", "in", "0", Dc(1.0))
        c.resistor("R1", "in", "a", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=0.0)
        run = ((lambda: transient(c, tstop, dt, tstart=tstart)) if engine == "scalar"
               else (lambda: batch_transient([c], tstop, dt, tstart=tstart)))
        with pytest.raises(ValueError, match="finite"):
            run()

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            TransientOptions(method="euler")

    @pytest.mark.parametrize("kwargs", [
        dict(gmin=-1.0),  # a negative shunt gives a wrong answer, not an error
        dict(gmin=NAN),
        dict(gmin=INF),
        dict(abstol=0.0),
        dict(abstol=NAN),
        dict(reltol=-1e-6),
        dict(reltol=INF),
        dict(max_newton="5"),  # would raise TypeError mid-computation
        dict(max_newton=5.0),
        dict(max_newton=True),
        dict(max_newton=0),
    ])
    def test_bad_newton_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TransientOptions(**kwargs)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, 0.0, None])
    def test_adaptive_must_be_a_bool(self, value):
        # ``if opts.adaptive:`` would run the string "false" adaptive.
        with pytest.raises(ValueError, match="adaptive"):
            TransientOptions(adaptive=value)

    @pytest.mark.parametrize("value", [True, False, "auto"])
    def test_retired_sparse_option_is_refused(self, value):
        """Every system is dense; the retired tier selector is no field."""
        with pytest.raises(TypeError, match="sparse"):
            TransientOptions(sparse=value)

    def test_backend_is_recorded(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=0.7)
        tel = transient(c, 1e-10, 1e-11).telemetry
        assert tel.extras == {"backend_dense_lu": 1}
        assert "linear-algebra backends:      dense_lu=1" in tel.format_report()

    def test_first_sample_at_tstart(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 1e3)
        c.capacitor("C1", "a", "0", 1e-12, ic=0.7)
        res = transient(c, 1e-9, 1e-11)
        assert res.times[0] == 0.0
        assert res.voltage("a").value_at(0.0) == pytest.approx(0.7, abs=1e-3)
