"""Tests for the adaptive (step-doubling LTE) transient mode."""

import numpy as np
import pytest

from repro.spice import Circuit, Ramp, TransientOptions, transient


def rc_circuit():
    c = Circuit()
    c.resistor("R1", "a", "0", 1e3)
    c.capacitor("C1", "a", "0", 1e-12, ic=1.0)
    return c


def rlc_circuit():
    c = Circuit()
    c.vsource("Vs", "in", "0", Ramp(0, 1, 0, 1e-12))
    c.resistor("R", "in", "m", 10.0)
    c.inductor("L", "m", "o", 5e-9)
    c.capacitor("C", "o", "0", 1e-12, ic=0.0)
    return c


class TestAccuracy:
    def test_rc_tracks_exponential(self):
        res = transient(
            rc_circuit(), 5e-9, 0.5e-9,
            options=TransientOptions(adaptive=True, lte_rtol=1e-4),
        )
        v = res.voltage("a")
        for t in (0.5e-9, 1e-9, 3e-9):
            assert v.value_at(t) == pytest.approx(np.exp(-t / 1e-9), abs=2e-3)

    def test_rlc_matches_fixed_step(self):
        fixed = transient(rlc_circuit(), 3e-9, 1e-12)
        adaptive = transient(
            rlc_circuit(), 3e-9, 2e-10,
            options=TransientOptions(adaptive=True, lte_rtol=1e-4),
        )
        ts = np.linspace(1e-10, 3e-9, 50)
        diff = np.abs(
            fixed.voltage("o").value_at(ts) - adaptive.voltage("o").value_at(ts)
        )
        assert np.max(diff) < 1.5e-2

    def test_ringing_peak_preserved(self):
        adaptive = transient(
            rlc_circuit(), 3e-9, 2e-10,
            options=TransientOptions(adaptive=True, lte_rtol=1e-4),
        )
        zeta = (10.0 / 2) * np.sqrt(1e-12 / 5e-9)
        overshoot = 1 + np.exp(-np.pi * zeta / np.sqrt(1 - zeta**2))
        assert adaptive.voltage("o").peak()[1] == pytest.approx(overshoot, rel=5e-3)


class TestEfficiency:
    def test_fewer_steps_than_fixed(self):
        fixed = transient(rc_circuit(), 5e-9, 1e-11)
        adaptive = transient(
            rc_circuit(), 5e-9, 0.5e-9,
            options=TransientOptions(adaptive=True),
        )
        assert len(adaptive.times) < 0.3 * len(fixed.times)

    def test_step_grows_on_smooth_tail(self):
        res = transient(
            rc_circuit(), 10e-9, 1e-9,
            options=TransientOptions(adaptive=True, lte_rtol=1e-3),
        )
        steps = np.diff(res.times)
        # Late steps (decayed, smooth) grow far beyond the early ones.
        # (The very last step is clipped to land on tstop, so use the max.)
        assert np.max(steps) > 3 * steps[0]

    def test_tightening_tolerance_adds_steps(self):
        loose = transient(
            rc_circuit(), 5e-9, 0.5e-9,
            options=TransientOptions(adaptive=True, lte_rtol=1e-2),
        )
        tight = transient(
            rc_circuit(), 5e-9, 0.5e-9,
            options=TransientOptions(adaptive=True, lte_rtol=1e-5),
        )
        assert len(tight.times) > len(loose.times)


class TestBreakpoints:
    def test_ramp_corners_still_hit(self):
        c = Circuit()
        c.vsource("V1", "a", "0", Ramp(0, 1, 0.35e-9, 0.3e-9))
        c.resistor("R1", "a", "b", 1e3)
        c.capacitor("C1", "b", "0", 0.2e-12, ic=0.0)
        res = transient(
            c, 1.5e-9, 0.3e-9, options=TransientOptions(adaptive=True)
        )
        assert np.any(np.isclose(res.times, 0.35e-9, atol=1e-18))
        assert np.any(np.isclose(res.times, 0.65e-9, atol=1e-18))


class TestAcceptAtFloor:
    """An LTE rejection whose shrink lands on ``min_dt`` accepts the step.

    Today the accepted solution is the one solved at the *old* step while
    ``t`` advances by the floored one, so waveform and time axis fall out
    of step.  Accepting only a step already solved at the floor fixes it,
    but moves the adaptive ssnbench reference answers past their tolerance,
    so the fix lands together with regenerated references (ROADMAP).
    """

    R, C, RISE, DT, TSTOP = 1e3, 1e-12, 1e-9, 0.2e-9, 3e-9

    def _ramp_rc(self, min_dt):
        c = Circuit()
        c.vsource("V1", "in", "0", Ramp(0.0, 1.0, 0.0, self.RISE))
        c.resistor("R1", "in", "out", self.R)
        c.capacitor("C1", "out", "0", self.C, ic=0.0)
        return transient(c, self.TSTOP, self.DT, options=TransientOptions(
            adaptive=True, lte_rtol=1e-6, lte_atol=1e-9, min_dt=min_dt))

    def _exact(self, t):
        """The RC response to a 0 -> 1 V ramp of duration RISE."""
        tau = self.R * self.C

        def ramp(t):
            t = np.maximum(t, 0.0)
            return (t - tau * (1.0 - np.exp(-t / tau))) / self.RISE

        return ramp(t) - ramp(t - self.RISE)

    @pytest.mark.xfail(strict=True, reason="accept-at-floor keeps the solution "
                       "of the rejected step (0.36 V error)")
    def test_floor_accepted_step_tracks_exact_response(self):
        res = self._ramp_rc(self.DT / 2)
        assert res.telemetry.lte_rejections > 0
        error = np.max(np.abs(res.voltage("out").y - self._exact(res.times)))
        assert error < 5e-3, f"|dV| = {error:.3e} V"

    @pytest.mark.xfail(strict=True, reason="accept-at-floor advances t past "
                       "tstop (last sample at 3.0667 ns)")
    def test_floor_accepted_step_ends_on_tstop(self):
        res = self._ramp_rc(self.DT / 1.5)
        assert res.times[-1] == pytest.approx(self.TSTOP, rel=1e-9)


class TestValidation:
    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            TransientOptions(adaptive=True, lte_rtol=0.0)
        with pytest.raises(ValueError):
            TransientOptions(adaptive=True, lte_atol=-1.0)
        with pytest.raises(ValueError):
            TransientOptions(adaptive=True, max_growth=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(lte_rtol=float("nan")),  # the step controller would never finish
        dict(lte_atol=float("nan")),
        dict(lte_atol=float("inf")),
        dict(max_growth=float("nan")),
        dict(max_growth=float("inf")),
        dict(min_dt=float("nan")),
        dict(min_dt=float("inf")),
    ])
    def test_non_finite_controls_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            TransientOptions(adaptive=True, **kwargs)


class TestSsnBank:
    def test_adaptive_matches_fixed_peak(self, tech018):
        from repro.analysis import DriverBankSpec, simulate_ssn

        spec = DriverBankSpec(
            technology=tech018, n_drivers=4, inductance=5e-9,
            capacitance=1e-12, rise_time=0.5e-9,
        )
        fixed = simulate_ssn(spec)
        adaptive = simulate_ssn(
            spec, dt=0.05e-9,
            options=TransientOptions(adaptive=True, lte_rtol=3e-4),
        )
        assert adaptive.peak_voltage == pytest.approx(fixed.peak_voltage, rel=5e-3)
