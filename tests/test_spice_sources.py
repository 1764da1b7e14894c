"""Unit tests for source waveform shapes."""

import pytest

from repro.spice import Dc, Pulse, Pwl, Ramp


class TestDc:
    def test_constant(self):
        src = Dc(1.8)
        assert src(0.0) == 1.8
        assert src(1e9) == 1.8

    def test_no_breakpoints(self):
        assert Dc(1.0).breakpoints() == []


class TestRamp:
    def test_shape(self):
        r = Ramp(0.0, 1.8, t_start=1e-9, t_rise=0.5e-9)
        assert r(0.0) == 0.0
        assert r(1e-9) == 0.0
        assert r(1.25e-9) == pytest.approx(0.9)
        assert r(1.5e-9) == pytest.approx(1.8)
        assert r(10e-9) == 1.8

    def test_slope(self):
        r = Ramp(0.0, 1.8, 0.0, 0.5e-9)
        assert r.slope == pytest.approx(3.6e9)

    def test_breakpoints(self):
        r = Ramp(0.0, 1.8, 1e-9, 0.5e-9)
        assert r.breakpoints() == pytest.approx([1e-9, 1.5e-9])

    def test_falling_ramp(self):
        r = Ramp(1.8, 0.0, 0.0, 1e-9)
        assert r(0.5e-9) == pytest.approx(0.9)

    def test_zero_rise_rejected(self):
        with pytest.raises(ValueError):
            Ramp(0, 1, 0, 0.0)


class TestPulse:
    @pytest.fixture
    def pulse(self):
        return Pulse(v0=0.0, v1=1.0, delay=1.0, rise=0.5, width=2.0, fall=0.5)

    def test_phases(self, pulse):
        assert pulse(0.5) == 0.0
        assert pulse(1.25) == pytest.approx(0.5)
        assert pulse(2.0) == 1.0
        assert pulse(3.75) == pytest.approx(0.5)
        assert pulse(10.0) == 0.0

    def test_breakpoints(self, pulse):
        assert pulse.breakpoints() == pytest.approx([1.0, 1.5, 3.5, 4.0])

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Pulse(0, 1, 0, rise=0.0, width=1, fall=1)


class TestPwl:
    def test_interpolation(self):
        src = Pwl([(0, 0), (1, 2), (3, 2), (4, 0)])
        assert src(0.5) == pytest.approx(1.0)
        assert src(2.0) == pytest.approx(2.0)
        assert src(3.5) == pytest.approx(1.0)

    def test_flat_outside(self):
        src = Pwl([(1, 5), (2, 7)])
        assert src(0.0) == 5.0
        assert src(3.0) == 7.0

    def test_breakpoints(self):
        src = Pwl([(0, 0), (1, 1)])
        assert src.breakpoints() == [0.0, 1.0]

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            Pwl([(0, 0)])

    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            Pwl([(0, 0), (0, 1)])

    def test_repr_renders_the_points(self):
        """A stable rendering, so test ids and logs never carry an address."""
        src = Pwl([(0, 0), (1e-9, 1), (3e-9, 0.25)])
        assert repr(src) == "Pwl([(0.0, 0.0), (1e-09, 1.0), (3e-09, 0.25)])"


class TestVectorizedValues:
    """``values`` over an array of times equals the scalar call bit for bit
    (the batched engine's adaptive lanes each sit at their own time)."""

    @pytest.mark.parametrize("shape", [
        Dc(1.8),
        Dc(0),
        Ramp(0.0, 1.8, t_start=1e-9, t_rise=0.5e-9),
        Ramp(1.8, 0.3, t_start=0.0, t_rise=0.7e-9),
        Pulse(0.0, 1.8, delay=1e-9, rise=0.3e-9, width=2e-9, fall=0.4e-9),
        Pwl([(0.0, 0.0), (1e-9, 1.0), (3e-9, 0.25)]),
    ], ids=repr)
    def test_matches_scalar_calls_bitwise(self, shape):
        import numpy as np

        corners = shape.breakpoints() or [1e-9]
        times = np.concatenate([
            np.linspace(-1e-9, 5e-9, 97),
            corners,
            np.nextafter(corners, -np.inf),
            np.nextafter(corners, np.inf),
        ])
        expected = np.array([float(shape(t)) for t in times])
        got = shape.values(times)
        assert got.dtype == np.float64 and got.shape == times.shape
        assert got.tobytes() == expected.tobytes()
