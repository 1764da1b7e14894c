"""Unit tests for the golden short-channel (BSIM-like) device model."""

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import simulate_many, simulate_ssn
from repro.devices import BsimLikeMosfet, BsimLikeParameters
from repro.process import TSMC018


@pytest.fixture
def dev():
    return BsimLikeMosfet(BsimLikeParameters())


class TestThreshold:
    def test_body_effect_raises_threshold(self, dev):
        assert dev.threshold(vbs=-0.5) > dev.threshold(vbs=0.0)

    def test_dibl_lowers_threshold(self, dev):
        assert dev.threshold(vds=1.8) < dev.threshold(vds=0.0)

    def test_zero_bias_value(self, dev):
        assert dev.threshold() == pytest.approx(dev.params.vth0, abs=1e-12)


class TestOverdrive:
    def test_strong_inversion_limit(self, dev):
        vgs = dev.params.vth0 + 0.8
        vgst = vgs - float(dev.threshold())
        assert float(dev.effective_overdrive(vgs)) == pytest.approx(vgst, rel=1e-3)

    def test_subthreshold_positive_and_small(self, dev):
        eff = float(dev.effective_overdrive(0.0))
        assert 0.0 < eff < 0.05

    def test_smooth_and_monotone(self, dev):
        vg = np.linspace(0, 1.8, 200)
        eff = dev.effective_overdrive(vg)
        assert np.all(np.diff(eff) > 0)


class TestCurrent:
    def test_positive_above_threshold(self, dev):
        assert dev.ids(1.2, 1.8) > 0.0

    def test_subthreshold_negligible_but_positive(self, dev):
        tiny = dev.ids(0.1, 1.8)
        strong = dev.ids(1.8, 1.8)
        assert 0.0 < tiny < 1e-3 * strong

    def test_monotone_in_vgs(self, dev):
        vg = np.linspace(0.0, 1.8, 100)
        ids = dev.ids(vg, 1.8)
        assert np.all(np.diff(ids) > 0)

    def test_monotone_in_vds(self, dev):
        vds = np.linspace(0.0, 1.8, 100)
        ids = dev.ids(1.8, vds)
        assert np.all(np.diff(ids) > 0)  # CLM keeps it strictly increasing

    def test_velocity_saturation_sublinear_alpha(self, dev):
        """Effective alpha well below 2: the short-channel signature."""
        p = dev.params
        i1 = dev.ids(p.vth0 + 0.6, 1.8)
        i2 = dev.ids(p.vth0 + 1.2, 1.8)
        alpha_eff = np.log(i2 / i1) / np.log(2.0)
        assert 1.0 < alpha_eff < 1.6

    def test_width_scaling(self):
        lo = BsimLikeMosfet(BsimLikeParameters(w=10e-6))
        hi = BsimLikeMosfet(BsimLikeParameters(w=25e-6))
        assert hi.ids(1.5, 1.8) == pytest.approx(2.5 * lo.ids(1.5, 1.8), rel=1e-12)

    def test_antisymmetric_in_vds(self, dev):
        """Source/drain swap: relabeling the terminals flips the sign only.

        Physical bias: s=0, d=0.4, g=1.5, b=0.  Relabeled with the 0.4 V
        node as "source": vgs=1.1, vds=-0.4, vbs=-0.4.
        """
        forward = dev.ids(1.5, 0.4, 0.0)
        backward = dev.ids(1.1, -0.4, -0.4)
        assert backward == pytest.approx(-forward, rel=1e-9)

    def test_continuous_through_vds_zero(self, dev):
        eps = 1e-7
        assert abs(dev.ids(1.5, eps) - dev.ids(1.5, -eps)) < 1e-6

    def test_smooth_derivatives_for_newton(self, dev):
        """gm/gds finite and non-negative over a bias grid."""
        for vgs in (0.3, 0.6, 1.0, 1.8):
            for vds in (0.05, 0.5, 1.8):
                op = dev.partials(vgs, vds)
                assert np.isfinite([op.ids, op.gm, op.gds, op.gmbs]).all()
                assert op.gm >= 0.0
                assert op.gds >= 0.0


@pytest.fixture
def evaluations_per_call(monkeypatch):
    """``(bias points evaluated, bias points asked for)`` of every partials call.

    Counts the bias points each of the golden model's forward bodies
    evaluates while a ``partials``/``partials_array`` call runs: analytic
    partials evaluate each asked-for point once, a 7-point finite difference
    seven times.
    """
    evaluated = [0]
    calls = []

    def counting_body(body, points):
        def counted(self, vgs, vds, vbs):
            evaluated[0] += points(vgs, vds, vbs)
            return body(self, vgs, vds, vbs)
        return counted

    def counting_entry(entry, points):
        def counted(self, vgs, vds, vbs=0.0):
            before = evaluated[0]
            op = entry(self, vgs, vds, vbs)
            calls.append((evaluated[0] - before, points(vgs)))
            return op
        return counted

    def array_points(*bias):
        return np.broadcast(*bias).size

    for name, points in [("_partials_forward_scalar", lambda *bias: 1),
                         ("_partials_forward", array_points),
                         ("_ids_forward", array_points)]:
        monkeypatch.setattr(BsimLikeMosfet, name,
                            counting_body(getattr(BsimLikeMosfet, name), points))
    monkeypatch.setattr(BsimLikeMosfet, "partials",
                        counting_entry(BsimLikeMosfet.partials, lambda vgs: 1))
    monkeypatch.setattr(BsimLikeMosfet, "partials_array",
                        counting_entry(BsimLikeMosfet.partials_array, np.size))
    return calls


def _bank(n_drivers, **fields):
    return DriverBankSpec(technology=TSMC018, n_drivers=n_drivers, inductance=5e-9,
                          rise_time=0.5e-9, **fields)


class TestOneEvaluationPerStamp:
    """Deterministic work counters: one forward I-V evaluation per stamp."""

    def test_scalar_transient_of_a_non_collapsed_bank(self, evaluations_per_call):
        simulate_ssn(_bank(4, collapse=False))
        assert len(evaluations_per_call) > 100
        assert set(evaluations_per_call) == {(1, 1)}

    def test_batched_sweep(self, evaluations_per_call):
        sims = simulate_many([_bank(n) for n in range(1, 7)], engine="batch")
        assert all(sim.telemetry.batch_fallbacks == 0 for sim in sims)
        assert len(evaluations_per_call) > 10
        assert set(evaluations_per_call) == {(6, 6)}


class TestSourceSensitivity:
    """The ASDM premise: raising the source costs more than 1x in gate drive."""

    def test_lambda_exceeds_one(self, dev):
        vdd = 1.8
        h = 0.05
        # Id at absolute (Vg, Vs) with bulk tied to source.
        def current(vg, vs):
            return dev.ids(vg - vs, vdd - vs, 0.0)

        dvg = (current(1.5 + h, 0.0) - current(1.5 - h, 0.0)) / (2 * h)
        dvs = (current(1.5, 0.3 + h) - current(1.5, 0.3 - h)) / (2 * h)
        lam = -dvs / dvg
        assert lam > 1.0


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            BsimLikeParameters(w=0.0)
        with pytest.raises(ValueError):
            BsimLikeParameters(ec=-1.0)
        with pytest.raises(ValueError):
            BsimLikeParameters(delta=0.0)

    def test_scaled_copy(self):
        base = BsimLikeParameters()
        wide = base.scaled(w=123e-6)
        assert wide.w == 123e-6
        assert wide.vth0 == base.vth0
        assert base.w != 123e-6
