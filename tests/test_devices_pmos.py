"""Unit tests for the complementary (PMOS) device mapping."""

import numpy as np
import pytest

from repro.devices import BsimLikeMosfet, BsimLikeParameters, ComplementaryMosfet
from repro.devices.base import MosfetModel, OperatingPoint
from repro.process import TSMC018


@pytest.fixture
def pmos():
    return TSMC018.pmos_device()


class TestMirrorMapping:
    def test_exact_sign_symmetry(self):
        inner = BsimLikeMosfet(BsimLikeParameters())
        p = ComplementaryMosfet(inner)
        for vgs, vds, vbs in [(-1.2, -1.0, 0.0), (-0.3, -1.8, 0.2), (0.5, 0.4, 0.0)]:
            assert p.ids(vgs, vds, vbs) == pytest.approx(
                -inner.ids(-vgs, -vds, -vbs), rel=1e-12
            )

    def test_conducting_pullup_sources_current(self, pmos):
        """vgs, vds negative (on): drain current negative = source->drain flow."""
        assert pmos.ids(-1.8, -1.8) < 0.0

    def test_off_when_gate_high(self, pmos):
        assert abs(pmos.ids(0.0, -1.8)) < 1e-8

    def test_array_evaluation(self, pmos):
        vgs = np.array([-1.8, -0.9, 0.0])
        out = pmos.ids(vgs, -1.8)
        assert out.shape == (3,)
        assert out[0] < out[1] <= out[2] + 1e-9

    def test_scalar_in_scalar_out(self, pmos):
        assert isinstance(pmos.ids(-1.0, -1.0), float)

    def test_partials_finite(self, pmos):
        op = pmos.partials(-1.8, -1.8, 0.0)
        assert np.isfinite([op.ids, op.gm, op.gds, op.gmbs]).all()

    MIRROR_BIASES = [(-1.8, -1.8, 0.0), (-1.0, -0.3, 0.2), (-0.4, -1.2, 0.0),
                     (0.3, 0.5, -0.1), (-1.2, 0.4, 0.0)]

    def test_partials_mirror_the_inner_analytic_partials(self, pmos):
        """Current negated, conductances unchanged: d/dv [-f(-v)] = f'(-v)."""
        for vgs, vds, vbs in self.MIRROR_BIASES:
            inner = pmos.inner.partials(-vgs, -vds, -vbs)
            assert pmos.partials(vgs, vds, vbs) == OperatingPoint(
                -inner.ids, inner.gm, inner.gds, inner.gmbs)

    def test_partials_match_finite_differences(self, pmos):
        for bias in self.MIRROR_BIASES:
            op = pmos.partials(*bias)
            fd = MosfetModel.partials(pmos, *bias)
            assert op.ids == fd.ids
            scale = abs(fd.gm) + abs(fd.gds) + abs(fd.gmbs)
            for field in ("gm", "gds", "gmbs"):
                assert abs(getattr(op, field) - getattr(fd, field)) <= 1e-6 * scale

    def test_partials_array_matches_scalar(self, pmos):
        vgs, vds, vbs = (np.array(column) for column in zip(*self.MIRROR_BIASES))
        arr = pmos.partials_array(vgs, vds, vbs)
        for k, bias in enumerate(self.MIRROR_BIASES):
            op = pmos.partials(*bias)
            tol = 1e-12 * (abs(op.ids) + abs(op.gm) + abs(op.gds) + abs(op.gmbs))
            for field in ("ids", "gm", "gds", "gmbs"):
                assert abs(getattr(arr, field)[k] - getattr(op, field)) <= tol

    def test_params_exposes_inner(self, pmos):
        assert pmos.params.w == TSMC018.reference_width * TSMC018.pmos_width_ratio


class TestTechnologyPmos:
    def test_all_cards_have_pmos(self):
        from repro.process import list_technologies, get_technology

        for name in list_technologies():
            tech = get_technology(name)
            assert tech.pmos is not None
            dev = tech.pmos_device()
            assert dev.ids(-tech.vdd, -tech.vdd) < 0.0

    def test_pullup_strength_scaling(self):
        one = TSMC018.pullup_device(1.0)
        two = TSMC018.pullup_device(2.0)
        assert two.params.w == pytest.approx(2 * one.params.w)

    def test_matched_drive_strength(self):
        """Default pull-up current magnitude within 2x of the pull-down's."""
        n = TSMC018.driver_device()
        p = TSMC018.pullup_device()
        ratio = abs(p.ids(-1.8, -1.8)) / n.ids(1.8, 1.8)
        assert 0.5 < ratio < 2.0

    def test_invalid_widths(self):
        with pytest.raises(ValueError):
            TSMC018.pmos_device(0.0)
        with pytest.raises(ValueError):
            TSMC018.pullup_device(-1.0)
