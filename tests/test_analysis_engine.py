"""Tests for execution-engine selection and the batched analysis routing.

Covers :mod:`repro.analysis.engine` (the explicit argument, else scalar),
the lockstep grouping inside :func:`simulate_many`, sweep/Monte-Carlo
pass-through, and the CLI flag of the commands that run an engine.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.campaign import CampaignRunner
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.engine import ENGINES, resolve_engine
from repro.analysis.montecarlo import DeviceSpread, transient_peak_distribution
from repro.analysis.simulate import simulate_many, simulate_ssn_cache_clear
from repro.analysis.sweeps import sweep_driver_count
from repro.cli import build_parser
from repro.observability import metrics as obs_metrics

#: Batched analysis results must stay within this of the scalar path.
PARITY_TOL = 1e-9


@pytest.fixture
def base(tech018):
    # Coarse rise time keeps each golden simulation fast for unit testing.
    return DriverBankSpec(
        technology=tech018, n_drivers=1, inductance=5e-9, rise_time=0.5e-9
    )


class TestResolveEngine:
    def test_default_is_scalar(self):
        assert resolve_engine() == "scalar"
        assert resolve_engine(None, n_items=10) == "scalar"

    def test_explicit_argument_wins(self):
        assert resolve_engine("batch", n_items=1) == "batch"

    def test_auto_picks_by_ensemble_size(self):
        assert resolve_engine("auto", n_items=1) == "scalar"
        assert resolve_engine("auto", n_items=2) == "batch"
        assert resolve_engine("auto") == "batch"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            resolve_engine("vectorized")
        with pytest.raises(ValueError):
            resolve_engine("surrogate")

    def test_engine_names_frozen(self):
        assert ENGINES == ("auto", "batch", "scalar")


class TestEngineSelectedOncePerRequest:
    """``repro_engine_selected_total`` counts requests, not the internal
    calls a request makes (chunks, bulk attempts)."""

    @pytest.mark.parametrize("run", [
        lambda specs: CampaignRunner(engine="batch").run_specs(specs),
        lambda specs: CampaignRunner(engine="batch", chunk_size=2).run_specs(specs),
        lambda specs: CampaignRunner(engine="scalar").run_specs(specs),
        lambda specs: simulate_many(specs),
    ], ids=["batch-campaign", "batch-campaign-chunked", "scalar-campaign",
            "simulate_many"])
    def test_one_request_counts_one_selection(self, base, run):
        specs = [dataclasses.replace(base, n_drivers=n) for n in (1, 2, 3)]
        registry = obs_metrics.enable_metrics()
        try:
            run(specs)
        finally:
            obs_metrics.disable_metrics()
        counts = [metric.value for name, _, metric in registry.items()
                  if name == "repro_engine_selected_total"]
        assert counts == [1]


class TestSimulateManyRouting:
    def test_batch_matches_scalar(self, base):
        specs = [dataclasses.replace(base, n_drivers=n) for n in (1, 3, 6)]
        scalar = simulate_many(specs, engine="scalar")
        simulate_ssn_cache_clear()
        batched = simulate_many(specs, engine="batch")
        for s, b in zip(scalar, batched):
            assert abs(s.peak_voltage - b.peak_voltage) <= PARITY_TOL
            assert np.max(np.abs(s.ssn.y - b.ssn.y)) <= PARITY_TOL
            # Per-instance telemetry survives the lockstep loop exactly.
            assert b.telemetry.newton_iterations == s.telemetry.newton_iterations

    def test_results_preserve_spec_order(self, base):
        specs = [dataclasses.replace(base, n_drivers=n) for n in (5, 1, 3)]
        sims = simulate_many(specs, engine="batch")
        assert [s.spec.n_drivers for s in sims] == [5, 1, 3]

    def test_mixed_time_grids_split_into_groups(self, base):
        # Different rise times -> different breakpoints and steps; the
        # batch router must split them rather than force one lockstep.
        specs = [
            dataclasses.replace(base, n_drivers=2),
            dataclasses.replace(base, n_drivers=4),
            dataclasses.replace(base, n_drivers=2, rise_time=0.25e-9),
        ]
        scalar = simulate_many(specs, engine="scalar")
        simulate_ssn_cache_clear()
        batched = simulate_many(specs, engine="batch")
        for s, b in zip(scalar, batched):
            assert abs(s.peak_voltage - b.peak_voltage) <= PARITY_TOL

    def test_unbatchable_options_fall_back_to_scalar(self, base):
        """A subnormal ground resistance overflows the batched conductance
        to inf, so the lockstep engine refuses the group and every spec
        runs on the scalar engine, which lands on the R = 0 peaks."""
        specs = [dataclasses.replace(base, n_drivers=n, resistance=5e-324)
                 for n in (1, 2)]
        sims = simulate_many(specs, engine="batch")
        simulate_ssn_cache_clear()
        reference = simulate_many(
            [dataclasses.replace(s, resistance=0.0) for s in specs], engine="scalar")
        for sim, ref in zip(sims, reference):
            assert sim.peak_voltage == ref.peak_voltage > 0.0
            assert sim.telemetry.batch_fallbacks == 0


class TestSweepPassThrough:
    def test_sweep_engines_agree(self, base):
        estimators = {"const": lambda spec: 0.25}
        counts = [1, 2, 4]
        scalar = sweep_driver_count(base, counts, estimators, engine="scalar")
        simulate_ssn_cache_clear()
        batched = sweep_driver_count(base, counts, estimators, engine="batch")
        assert scalar.values() == batched.values()
        for sp, bp in zip(scalar.simulated_peaks(), batched.simulated_peaks()):
            assert abs(sp - bp) <= PARITY_TOL
        # Aggregated telemetry still accounts for every point.
        assert batched.telemetry.newton_iterations == \
            scalar.telemetry.newton_iterations


class TestTransientMonteCarlo:
    def test_engines_draw_identical_samples(self, base):
        spec = dataclasses.replace(base, n_drivers=4)
        kwargs = dict(spread=DeviceSpread(), trials=5, seed=11)
        scalar = transient_peak_distribution(spec, engine="scalar", **kwargs)
        simulate_ssn_cache_clear()
        batched = transient_peak_distribution(spec, engine="batch", **kwargs)
        assert len(scalar.samples) == len(batched.samples) == 5
        assert np.max(np.abs(scalar.samples - batched.samples)) <= PARITY_TOL
        assert scalar.nominal == pytest.approx(batched.nominal, abs=PARITY_TOL)

    def test_distribution_statistics_coherent(self, base):
        mc = transient_peak_distribution(
            dataclasses.replace(base, n_drivers=4), trials=6, seed=3, engine="batch"
        )
        assert mc.samples.min() <= mc.mean <= mc.samples.max()
        assert mc.samples.min() <= mc.p95 <= mc.samples.max()
        assert mc.std >= 0.0
        assert mc.telemetry.newton_iterations > 0

    def test_too_few_trials_rejected(self, base):
        with pytest.raises(ValueError):
            transient_peak_distribution(base, trials=1)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            DeviceSpread(vth_sigma=-0.01)


class TestCliFlag:
    """``--engine`` sits on the commands that run an engine, and only there."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--values", "1,2"],
        ["simulate", "-n", "2,4"],
        ["montecarlo", "-n", "4"],
        ["surrogate", "fit"],
    ])
    def test_engine_flag_parsed(self, argv):
        args = build_parser().parse_args(argv + ["--engine", "batch"])
        assert args.engine == "batch"

    def test_engine_flag_defaults(self):
        parse = build_parser().parse_args
        assert parse(["sweep", "--values", "1,2"]).engine == "scalar"
        assert parse(["simulate", "-n", "2"]).engine == "scalar"
        # Surrogate fitting trains on the batched engine unless told otherwise.
        assert parse(["surrogate", "fit"]).engine == "batch"

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--values", "1", "--engine", "turbo"])

    @pytest.mark.parametrize("argv", [
        ["estimate", "-n", "4", "--engine", "batch"],
        ["estimate", "-n", "4", "--sparse", "on"],
        ["sweep", "--values", "1,2", "--sparse", "on"],
        ["fit", "--engine", "batch"],
        ["plan", "-b", "0.3", "-w", "8", "--engine", "batch"],
        ["report", "fig3", "--engine", "batch"],
        ["serve", "--engine", "batch"],
        ["surrogate", "inspect", "--engine", "batch"],
        ["surrogate", "--engine", "batch", "fit"],
        # The surrogate tier answers through the service, not as an engine.
        ["surrogate", "fit", "--engine", "surrogate"],
        ["sweep", "--values", "2", "--engine", "surrogate"],
        ["montecarlo", "--engine", "surrogate"],
        ["simulate", "--drivers", "2", "--engine", "surrogate"],
    ])
    def test_unsupported_engine_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err
