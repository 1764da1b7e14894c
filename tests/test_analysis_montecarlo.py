"""Unit tests for the process-variation Monte Carlo extension."""

import numpy as np
import pytest

from repro.analysis import ParameterSpread, peak_noise_distribution
from repro.core import AsdmParameters


@pytest.fixture
def params():
    return AsdmParameters(k=5.4e-3, v0=0.60, lam=1.04)


class TestDistribution:
    def test_reproducible_with_seed(self, params):
        a = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=200, seed=7)
        b = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=200, seed=7)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, params):
        a = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=200, seed=1)
        b = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=200, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_nominal_matches_closed_form(self, params):
        from repro.core import circuit_figure, peak_noise_from_figure

        r = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=50)
        z = circuit_figure(8, 5e-9, 1.8 / 0.5e-9)
        assert r.nominal == pytest.approx(peak_noise_from_figure(z, params, 1.8))

    def test_mean_near_nominal(self, params):
        r = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=3000)
        assert r.mean == pytest.approx(r.nominal, rel=0.05)

    def test_p95_above_mean(self, params):
        r = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=1000)
        assert r.p95 > r.mean
        assert r.guard_band == pytest.approx(r.p95 - r.nominal)

    def test_zero_spread_collapses(self, params):
        spread = ParameterSpread(k_sigma=0.0, v0_sigma=0.0, lam_sigma=0.0)
        r = peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, spread=spread, trials=50)
        assert r.std == pytest.approx(0.0, abs=1e-12)
        assert r.samples[0] == pytest.approx(r.nominal, rel=1e-9)

    def test_wider_spread_wider_distribution(self, params):
        tight = peak_noise_distribution(
            params, 8, 5e-9, 1.8, 0.5e-9,
            spread=ParameterSpread(k_sigma=0.02), trials=800,
        )
        wide = peak_noise_distribution(
            params, 8, 5e-9, 1.8, 0.5e-9,
            spread=ParameterSpread(k_sigma=0.2), trials=800,
        )
        assert wide.std > tight.std

    def test_samples_match_the_scalar_closed_form(self, params):
        """The vectorized pass is Eqn (10) per trial, clamps included;
        ``np.expm1`` may differ from ``math.expm1`` in the last bit."""
        from repro.core import circuit_figure, peak_noise_from_figure

        spread = ParameterSpread(k_sigma=0.3, v0_sigma=0.5, lam_sigma=0.6)
        vdd, trials, seed = 1.8, 2000, 11
        r = peak_noise_distribution(params, 8, 5e-9, vdd, 0.5e-9,
                                    spread=spread, trials=trials, seed=seed)

        rng = np.random.default_rng(seed)
        ks = params.k * rng.lognormal(0.0, spread.k_sigma, size=trials)
        v0s = params.v0 + rng.normal(0.0, spread.v0_sigma, size=trials)
        lams = params.lam + rng.normal(0.0, spread.lam_sigma, size=trials)
        z = circuit_figure(8, 5e-9, vdd / 0.5e-9)
        reference = np.empty(trials)
        for i in range(trials):
            v0 = min(max(v0s[i], 0.0), 0.9 * vdd)
            lam = max(lams[i], 1e-3)
            trial = AsdmParameters(k=float(ks[i]), v0=float(v0), lam=float(lam))
            reference[i] = peak_noise_from_figure(z, trial, vdd)
        # Every clamp is exercised.
        assert (v0s < 0).any() and (v0s > 0.9 * vdd).any() and (lams < 1e-3).any()
        np.testing.assert_allclose(r.samples, reference, rtol=1e-15, atol=0)
        assert r.nominal == peak_noise_from_figure(z, params, vdd)

    def test_validation(self, params):
        with pytest.raises(ValueError):
            peak_noise_distribution(params, 8, 5e-9, 1.8, 0.5e-9, trials=1)
        with pytest.raises(ValueError):
            ParameterSpread(k_sigma=-0.1)
