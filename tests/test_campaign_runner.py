"""Campaign runner: checkpoint/resume, chunking, journaling, wrappers.

The fault-free contracts: a campaign must return exactly what the direct
execution paths return (bit-identical peaks and samples), journal progress
as valid JSONL committed atomically, resume from any prefix of that
journal without recomputing finished chunks, and refuse to resume from a
journal written by a different workload.  Failure-path behavior lives in
``test_campaign_faults``.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from repro.analysis.campaign import (
    CampaignConfig,
    CampaignRunner,
    CheckpointMismatchError,
)
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.montecarlo import transient_peak_distribution
from repro.analysis.simulate import simulate_many, simulate_ssn_cache_clear
from repro.analysis.sweeps import sweep
from repro.observability import metrics as obs_metrics
from repro.spice.telemetry import SolverTelemetry
from repro.spice.transient import TransientOptions
from repro.testing import faults


#: Journal fingerprint of ``run_specs(<2 specs>, options=TransientOptions(
#: abstol=1e-10))`` at chunk size 2, as written before the options repr
#: lost its seed-engine flag (commit b35de1cd).
OLD_OPTIONS_FINGERPRINT = "c074aa62f3db60a5"


@pytest.fixture(autouse=True)
def _no_leftover_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


def _specs(tech, counts):
    base = DriverBankSpec(
        technology=tech, n_drivers=1, inductance=1e-9, rise_time=0.5e-9
    )
    return [dataclasses.replace(base, n_drivers=n) for n in counts]


def _config(**kwargs):
    kwargs.setdefault("backoff_base", 0.0)
    kwargs.setdefault("max_workers", 1)
    kwargs.setdefault("engine", "scalar")
    return CampaignConfig(**kwargs)


class TestCleanRuns:
    def test_matches_direct_simulate_many(self, tech018):
        specs = _specs(tech018, [1, 2, 3, 4, 5])
        direct = simulate_many(specs, engine="scalar")
        runner = CampaignRunner(_config(chunk_size=2))
        summaries = runner.run_simulate(specs)
        assert [s.peak_voltage for s in summaries] == [
            d.peak_voltage for d in direct
        ]
        assert [s.peak_time for s in summaries] == [d.peak_time for d in direct]
        assert [s.engine for s in summaries] == ["scalar"] * len(specs)

    def test_clean_telemetry_is_quiet(self, tech018):
        runner = CampaignRunner(_config(chunk_size=2))
        runner.run_simulate(_specs(tech018, [1, 2, 3]))
        tel = runner.telemetry
        assert (tel.retries, tel.degradations, tel.chunks_failed) == (0, 0, 0)
        assert tel.unrecovered_failures == 0
        assert tel.checkpoint_writes == 0  # no checkpoint configured

    def test_batch_rung_matches_batch_engine(self, tech018):
        specs = _specs(tech018, [2, 3, 4, 6])
        direct = simulate_many(specs, engine="batch")
        runner = CampaignRunner(_config(chunk_size=4, engine="batch"))
        summaries = runner.run_simulate(specs)
        assert [s.peak_voltage for s in summaries] == [
            d.peak_voltage for d in direct
        ]
        assert all(s.engine == "batch" for s in summaries)

    def test_empty_workload(self):
        assert CampaignRunner(_config()).run_simulate([]) == []


class TestCheckpointJournal:
    def test_journal_is_valid_jsonl_with_header(self, tech018, tmp_path):
        ckpt = tmp_path / "run.jsonl"
        runner = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        runner.run_simulate(_specs(tech018, [1, 2, 3, 4, 5]))
        lines = ckpt.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["version"] == 1
        assert header["kind"] == "simulate"
        assert header["n_items"] == 5
        chunks = [json.loads(line) for line in lines[1:]]
        assert [c["chunk"] for c in chunks] == [0, 1, 2]
        indices = [i for c in chunks for i in c["indices"]]
        assert indices == [0, 1, 2, 3, 4]
        for c in chunks:
            for rec in c["records"]:
                assert np.isfinite(rec["peak"])
        # header write + one commit per chunk
        assert runner.telemetry.checkpoint_writes == 4
        assert not list(tmp_path.glob("*.tmp"))

    def test_resume_from_complete_journal_recomputes_nothing(
        self, tech018, tmp_path
    ):
        specs = _specs(tech018, [1, 2, 3, 4, 5])
        ckpt = tmp_path / "run.jsonl"
        first = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        baseline = first.run_simulate(specs)

        second = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2,
                                        resume=True))
        resumed = second.run_simulate(specs)
        assert [s.peak_voltage for s in resumed] == [
            s.peak_voltage for s in baseline
        ]
        assert second.telemetry.checkpoint_writes == 0

    def test_resume_from_partial_journal_is_bit_identical(
        self, tech018, tmp_path
    ):
        specs = _specs(tech018, [1, 2, 3, 4, 5, 6])
        ckpt = tmp_path / "run.jsonl"
        first = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        baseline = first.run_simulate(specs)

        # Keep the header and the first completed chunk only: the resumed
        # run must re-execute chunks 1-2 and splice everything together
        # exactly as the uninterrupted run reported it.
        lines = ckpt.read_text().splitlines()
        ckpt.write_text("\n".join(lines[:2]) + "\n")
        second = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2,
                                        resume=True))
        resumed = second.run_simulate(specs)
        assert [s.peak_voltage for s in resumed] == [
            s.peak_voltage for s in baseline
        ]
        assert [s.peak_time for s in resumed] == [
            s.peak_time for s in baseline
        ]
        assert second.telemetry.checkpoint_writes == 2

    def test_fingerprint_mismatch_is_rejected(self, tech018, tmp_path):
        ckpt = tmp_path / "run.jsonl"
        CampaignRunner(_config(checkpoint=ckpt, chunk_size=2)).run_simulate(
            _specs(tech018, [1, 2, 3])
        )
        other = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2,
                                       resume=True))
        with pytest.raises(CheckpointMismatchError):
            other.run_simulate(_specs(tech018, [4, 5, 6]))

    def test_chunk_size_participates_in_fingerprint(self, tech018, tmp_path):
        specs = _specs(tech018, [1, 2, 3])
        ckpt = tmp_path / "run.jsonl"
        CampaignRunner(_config(checkpoint=ckpt, chunk_size=2)).run_simulate(specs)
        other = CampaignRunner(_config(checkpoint=ckpt, chunk_size=3,
                                       resume=True))
        with pytest.raises(CheckpointMismatchError):
            other.run_simulate(specs)

    def test_journal_from_the_legacy_rung_era_resumes(self, tech018, tmp_path):
        """A record's ``engine`` is a label only: a default-options journal
        whose instances landed on the retired "legacy" rung still resumes
        without recomputing anything."""
        specs = _specs(tech018, [1, 2, 3])
        ckpt = tmp_path / "run.jsonl"
        baseline = CampaignRunner(
            _config(checkpoint=ckpt, chunk_size=2)).run_simulate(specs)
        lines = ckpt.read_text().splitlines()
        chunks = [json.loads(line) for line in lines[1:]]
        for chunk in chunks:
            chunk["engine"] = "legacy"
            for rec in chunk["records"]:
                rec["engine"] = "legacy"
        ckpt.write_text("\n".join(
            [lines[0]] + [json.dumps(c, sort_keys=True) for c in chunks]) + "\n")

        second = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2,
                                        resume=True))
        resumed = second.run_simulate(specs)
        assert second.telemetry.checkpoint_writes == 0
        assert [s.engine for s in resumed] == ["legacy"] * len(specs)
        assert [s.peak_voltage for s in resumed] == [
            s.peak_voltage for s in baseline
        ]

    def test_explicit_options_journal_with_old_options_repr_is_refused(
        self, tech018, tmp_path
    ):
        """Explicit options enter the fingerprint through their repr, which
        lost the seed-engine flag: a journal written before that refuses to
        resume instead of splicing records computed under another repr."""
        specs = _specs(tech018, [1, 2])
        options = TransientOptions(abstol=1e-10)
        ckpt = tmp_path / "run.jsonl"
        CampaignRunner(_config(checkpoint=ckpt, chunk_size=2)).run_specs(
            specs, options=options)
        lines = ckpt.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["fingerprint"] != OLD_OPTIONS_FINGERPRINT
        header["fingerprint"] = OLD_OPTIONS_FINGERPRINT
        ckpt.write_text("\n".join([json.dumps(header, sort_keys=True)]
                                  + lines[1:]) + "\n")

        second = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2,
                                        resume=True))
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            second.run_specs(specs, options=options)

    def test_resume_without_journal_runs_fresh(self, tech018, tmp_path):
        runner = CampaignRunner(
            _config(checkpoint=tmp_path / "fresh.jsonl", resume=True,
                    chunk_size=2)
        )
        summaries = runner.run_simulate(_specs(tech018, [1, 2]))
        assert len(summaries) == 2


@pytest.fixture
def counted():
    """The metrics registry's telemetry view of what was counted so far."""
    registry = obs_metrics.enable_metrics()
    yield lambda: SolverTelemetry.from_registry(registry)
    obs_metrics.disable_metrics()


def _campaign_counts(tel):
    return (tel.checkpoint_writes, tel.retries, tel.chunks_failed)


class TestSessionCountsPerCall:
    """A reused runner records each call's campaign counters once; its own
    ``telemetry`` keeps the lifetime totals."""

    def test_reused_runner_records_each_call_once(self, tech018, tmp_path, counted):
        runner = CampaignRunner(_config(checkpoint=tmp_path / "run.jsonl",
                                        chunk_size=1))
        runner.run_simulate(_specs(tech018, [1, 2]))  # header + 2 commits
        assert counted().checkpoint_writes == 3
        runner.run_simulate(_specs(tech018, [3, 4]))
        assert counted().checkpoint_writes == 6
        assert runner.telemetry.checkpoint_writes == 6

    def test_restored_chunks_count_in_the_restoring_call(
            self, tech018, tmp_path, counted):
        specs = _specs(tech018, [1, 2])
        ckpt = tmp_path / "run.jsonl"
        simulate_ssn_cache_clear()  # force the bulk attempt through the solver
        faults.install_faults("newton:chunk=0:phase=bulk")
        CampaignRunner(_config(checkpoint=ckpt, chunk_size=1,
                               max_retries=2)).run_simulate(specs)
        faults.clear_faults()
        assert _campaign_counts(counted()) == (3, 2, 1)

        resumed = CampaignRunner(_config(checkpoint=ckpt, chunk_size=1,
                                         resume=True))
        for calls in (1, 2):
            resumed.run_simulate(specs)  # restores both chunks, runs none
            assert _campaign_counts(counted()) == (3, 2 + 2 * calls, 1 + calls)
            assert _campaign_counts(resumed.telemetry) == (0, 2 * calls, calls)


class TestWorkloadWrappers:
    def test_sweep_campaign_matches_direct(self, tech018):
        base = _specs(tech018, [1])[0]
        values = [1, 2, 4]
        apply = lambda spec, n: dataclasses.replace(spec, n_drivers=int(n))
        estimators = {"linear": lambda spec: 0.02 * spec.n_drivers}
        direct = sweep("n_drivers", base, values, apply, estimators,
                       max_workers=1, engine="scalar")
        via_campaign = CampaignRunner(_config(chunk_size=2)).run_sweep(
            "n_drivers", base, values, apply, estimators)
        assert via_campaign.knob == direct.knob
        assert via_campaign.values() == direct.values()
        assert via_campaign.simulated_peaks() == direct.simulated_peaks()
        assert via_campaign.estimate_series("linear") == \
            direct.estimate_series("linear")

    def test_montecarlo_campaign_matches_direct(self, tech018):
        spec = _specs(tech018, [2])[0]
        direct = transient_peak_distribution(spec, trials=4, seed=7,
                                             engine="scalar")
        via_campaign = CampaignRunner(_config(chunk_size=2)).run_montecarlo(
            spec, trials=4, seed=7
        )
        assert np.array_equal(via_campaign.samples, direct.samples)
        assert via_campaign.nominal == direct.nominal
        assert via_campaign.mean == direct.mean
        assert via_campaign.p95 == direct.p95
        # Both carry the Monte Carlo wall clock beside the solver phases.
        assert "montecarlo_transient" in direct.telemetry.phase_seconds
        assert (sorted(via_campaign.telemetry.phase_seconds)
                == sorted(direct.telemetry.phase_seconds))

    def test_journal_round_trip_preserves_float_bits(self, tech018, tmp_path):
        """Peaks replayed from the JSONL journal are the exact floats the
        original run computed — json round-trips repr exactly."""
        specs = _specs(tech018, [1, 2, 3, 4])
        ckpt = tmp_path / "run.jsonl"
        first = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        baseline = first.run_simulate(specs)
        lines = ckpt.read_text().splitlines()
        journaled = {
            rec["index"]: rec["peak"]
            for line in lines[1:]
            for rec in json.loads(line)["records"]
        }
        for summary in baseline:
            assert journaled[summary.index] == summary.peak_voltage


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_size": 0},
            {"max_retries": -1},
            {"deadline": 0.0},
            {"deadline": float("nan")},
            {"deadline": float("inf")},
            {"backoff_base": -0.1},
            {"max_workers": -3},
        ],
    )
    def test_bad_knobs_raise(self, kwargs):
        with pytest.raises(ValueError):
            CampaignConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"deadline": float("nan")}, {"max_workers": -3}])
    def test_service_refuses_bad_runner_knobs_at_construction(
            self, kwargs, tmp_path):
        from repro.service import SsnService

        with pytest.raises(ValueError):
            SsnService(store_root=tmp_path / "store", **kwargs)

    def test_config_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError):
            CampaignRunner(CampaignConfig(), chunk_size=4)
