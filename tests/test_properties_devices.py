"""Property-based tests (hypothesis) for the device models."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import AsdmParameters
from repro.devices import (
    AlphaPowerMosfet,
    AlphaPowerParameters,
    BsimLikeMosfet,
    BsimLikeParameters,
    Level1Mosfet,
    Level1Parameters,
)
from repro.devices.base import MosfetModel

vgs_values = st.floats(min_value=-0.5, max_value=2.5)
vds_values = st.floats(min_value=0.0, max_value=2.5)
vbs_values = st.floats(min_value=-1.0, max_value=0.0)


@st.composite
def bsim_devices(draw):
    return BsimLikeMosfet(
        BsimLikeParameters(
            vth0=draw(st.floats(0.3, 0.7)),
            mu0=draw(st.floats(0.02, 0.05)),
            ec=draw(st.floats(2e6, 8e6)),
            theta=draw(st.floats(0.1, 0.4)),
            w=draw(st.floats(1e-6, 100e-6)),
        )
    )


class TestGoldenDeviceProperties:
    @settings(max_examples=80)
    @given(dev=bsim_devices(), vgs=vgs_values, vds=vds_values, vbs=vbs_values)
    def test_current_nonnegative_for_forward_vds(self, dev, vgs, vds, vbs):
        assert dev.ids(vgs, vds, vbs) >= 0.0

    @settings(max_examples=80)
    @given(dev=bsim_devices(), vgs=vgs_values, vds=vds_values, vbs=vbs_values)
    def test_current_finite_everywhere(self, dev, vgs, vds, vbs):
        assert np.isfinite(dev.ids(vgs, vds, vbs))
        assert np.isfinite(dev.ids(vgs, -vds, vbs))

    @settings(max_examples=60)
    @given(dev=bsim_devices(), vds=st.floats(0.1, 2.5), vbs=vbs_values)
    def test_monotone_in_gate_voltage(self, dev, vds, vbs):
        vg = np.linspace(-0.5, 2.5, 60)
        ids = dev.ids(vg, vds, vbs)
        assert np.all(np.diff(ids) >= -1e-15)

    @settings(max_examples=60)
    @given(dev=bsim_devices(), vgs=st.floats(0.8, 2.5), vbs=vbs_values)
    def test_monotone_in_drain_voltage(self, dev, vgs, vbs):
        vds = np.linspace(0.0, 2.5, 60)
        ids = dev.ids(vgs, vds, vbs)
        assert np.all(np.diff(ids) >= -1e-15)

    @settings(max_examples=60)
    @given(dev=bsim_devices(), vgs=st.floats(0.8, 2.0), vds=st.floats(0.2, 2.0))
    def test_reverse_body_bias_reduces_current(self, dev, vgs, vds):
        assert dev.ids(vgs, vds, -0.8) <= dev.ids(vgs, vds, 0.0) + 1e-15

    @settings(max_examples=40)
    @given(dev=bsim_devices(), vgs=st.floats(0.5, 2.0), vds=st.floats(0.05, 2.0))
    def test_partials_match_definition(self, dev, vgs, vds):
        """The partials must be directional derivatives."""
        op = dev.partials(vgs, vds, 0.0)
        h = 1e-4
        gm_ref = (dev.ids(vgs + h, vds) - dev.ids(vgs - h, vds)) / (2 * h)
        assert op.gm == pytest.approx(float(gm_ref), rel=1e-2, abs=1e-9)


bias_vgs = st.floats(min_value=-0.5, max_value=2.0)
bias_vds = st.floats(min_value=-1.9, max_value=1.9)
bias_vbs = st.floats(min_value=-1.0, max_value=0.5)
CONDUCTANCES = ("gm", "gds", "gmbs")


def _body_headroom(dev, vds, vbs):
    """``phi - vbs`` of the evaluated device (source/drain swapped for vds < 0)."""
    return dev.params.phi - (vbs - vds if vds < 0.0 else vbs)


def _scale(op):
    return abs(op.gm) + abs(op.gds) + abs(op.gmbs)


class TestGoldenDevicePartials:
    """The golden model's analytic partials against the FD definition."""

    @settings(max_examples=150)
    @given(dev=bsim_devices(), vgs=bias_vgs, vds=bias_vds, vbs=bias_vbs)
    def test_analytic_matches_finite_differences(self, dev, vgs, vds, vbs):
        # Away from the body-effect clamp, where a central difference would
        # straddle the sqrt kink, and from vds = 0, where the current's
        # second derivative jumps and the central difference is only
        # first-order accurate.  The absolute floor covers deep
        # subthreshold, where the differences drown in the current's own
        # rounding.
        assume(_body_headroom(dev, vds, vbs) > 1e-2 and abs(vds) >= 1e-3)
        op = dev.partials(vgs, vds, vbs)
        fd = MosfetModel.partials(dev, vgs, vds, vbs)
        assert op.ids == fd.ids
        for field in CONDUCTANCES:
            assert abs(getattr(op, field) - getattr(fd, field)) <= 1e-6 * _scale(fd) + 1e-15

    @settings(max_examples=80)
    @given(dev=bsim_devices(),
           biases=st.lists(st.tuples(bias_vgs, bias_vds, bias_vbs), min_size=1, max_size=12))
    def test_array_matches_scalar(self, dev, biases):
        """Relative to the operating point's scale (current + conductances
        times 1 V), plus 1e-20: at vds = 0 in subthreshold the current and
        gds are themselves rounding-limited there, eight orders below gmin.
        """
        vgs, vds, vbs = (np.array(column) for column in zip(*biases))
        arr = dev.partials_array(vgs, vds, vbs)
        for k, bias in enumerate(biases):
            op = dev.partials(*bias)
            tol = 1e-12 * (abs(op.ids) + _scale(op)) + 1e-20
            for field in ("ids",) + CONDUCTANCES:
                assert abs(getattr(arr, field)[k] - getattr(op, field)) <= tol

    @settings(max_examples=60)
    @given(dev=bsim_devices(), vgs=bias_vgs, vds=st.floats(0.0, 1.9),
           beyond=st.floats(0.0, 0.5))
    def test_gmbs_zero_on_the_clamp(self, dev, vgs, vds, beyond):
        """Forward bias with vbs >= phi, and its source/drain-swapped mirror."""
        vbs = dev.params.phi + beyond
        for bias in [(vgs, vds, vbs), (vgs - vds, -vds, vbs - vds)]:
            assert dev.partials(*bias).gmbs == 0.0
            assert dev.partials_array(*(np.array([v]) for v in bias)).gmbs[0] == 0.0


class TestModelFamilyConsistency:
    @settings(max_examples=60)
    @given(
        kp=st.floats(50e-6, 300e-6),
        vth=st.floats(0.3, 0.7),
        vgs=st.floats(0.0, 2.5),
        vds=st.floats(0.0, 2.5),
    )
    def test_alpha2_matches_level1_in_saturation(self, kp, vth, vgs, vds):
        """alpha-power at alpha=2 equals the square law in saturation."""
        w, length = 10e-6, 1e-6
        beta = kp * w / length
        level1 = Level1Mosfet(Level1Parameters(kp=kp, vth0=vth, w=w, l=length, lam=0.0, gamma=0.0))
        alpha = AlphaPowerMosfet(
            AlphaPowerParameters(b=beta / 2 / w, alpha=2.0, vth=vth, kv=1.0, w=w)
        )
        vov = vgs - vth
        if vov <= 0 or vds < max(vov, 1.0):
            return  # compare only in mutual saturation
        assert float(alpha.ids(vgs, vds)) == pytest.approx(
            float(level1.ids(vgs, vds)), rel=1e-9
        )


class TestAsdmProperties:
    @settings(max_examples=80)
    @given(
        k=st.floats(1e-4, 0.1),
        v0=st.floats(0.2, 1.0),
        lam=st.floats(1.0, 1.5),
        vg=st.floats(0.0, 2.5),
        vs=st.floats(0.0, 1.0),
    )
    def test_current_nonnegative_and_piecewise_linear(self, k, v0, lam, vg, vs):
        params = AsdmParameters(k=k, v0=v0, lam=lam)
        i = params.drain_current(vg, vs)
        assert i >= 0.0
        overdrive = vg - v0 - lam * vs
        if overdrive > 0:
            assert i == pytest.approx(k * overdrive, rel=1e-12)
        else:
            assert i == 0.0

    @settings(max_examples=50)
    @given(
        k=st.floats(1e-4, 0.1),
        v0=st.floats(0.2, 1.0),
        lam=st.floats(1.0, 1.5),
        factor=st.floats(0.1, 20.0),
    )
    def test_scaling_commutes_with_evaluation(self, k, v0, lam, factor):
        params = AsdmParameters(k=k, v0=v0, lam=lam)
        assert params.scaled(factor).drain_current(1.6, 0.1) == pytest.approx(
            factor * params.drain_current(1.6, 0.1), rel=1e-12
        )


def _stamped_models():
    from repro.core.asdm import AsdmMosfet
    from repro.devices.pmos import ComplementaryMosfet

    return [BsimLikeMosfet(), ComplementaryMosfet(BsimLikeMosfet()),
            AsdmMosfet(AsdmParameters(k=0.02, v0=0.5, lam=1.3), vdd=1.8),
            Level1Mosfet(), AlphaPowerMosfet()]


class TestRecordedCurrentIsPartialsIds:
    """The scalar engine records a device's current as ``partials(...).ids``
    (the operating point it keeps for the next solve's first iterate); it
    must be ``ids_scalar`` bit for bit, for every model the engine stamps."""

    @settings(max_examples=100)
    @given(model=st.sampled_from(_stamped_models()),
           vgs=st.floats(-2.5, 2.5), vds=st.floats(-2.5, 2.5),
           vbs=st.floats(-1.5, 1.0))
    def test_partials_ids_equals_ids_scalar(self, model, vgs, vds, vbs):
        recorded = float(model.partials(vgs, vds, vbs).ids)
        expected = float(model.ids_scalar(vgs, vds, vbs))
        assert np.float64(recorded).tobytes() == np.float64(expected).tobytes()
