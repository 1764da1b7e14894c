"""Failure-path tests driven by the deterministic fault injector.

Every recovery mechanism is exercised, not trusted: injected Newton
divergence walks the retry ladder, killed pool workers degrade to the
serial path, stalls trip the per-task deadline, a crash mid checkpoint
write leaves the previous journal intact, and an injected interrupt plus
``resume=True`` reproduces the uninterrupted run bit for bit.  Telemetry
must report the *exact* injected counts — recovery that cannot be audited
is indistinguishable from silent corruption.
"""

import dataclasses
import json
import warnings

import numpy as np
import pytest

from repro.analysis.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignRunner,
)
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import simulate_many, simulate_ssn_cache_clear
from repro.analysis.sweeps import sweep
from repro.testing import faults
from repro.testing.faults import InjectedCrash


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


class TestInjectorUnits:
    def test_parse_format_round_trip(self):
        spec = "newton:chunk=1:phase=bulk,worker:task=0,stall:seconds=0.5"
        rules = faults.parse_faults(spec)
        assert [r.kind for r in rules] == ["newton", "worker", "stall"]
        assert rules[0].chunk == 1 and rules[0].phase == "bulk"
        assert rules[2].seconds == 0.5
        assert faults.parse_faults(faults.format_faults(rules)) == rules

    def test_unknown_kind_and_selector_raise(self):
        with pytest.raises(ValueError):
            faults.parse_faults("explode")
        with pytest.raises(ValueError):
            faults.parse_faults("newton:flavor=spicy")

    def test_scope_nests_and_restores(self):
        with faults.scope(chunk=1):
            with faults.scope(task=3, phase="bulk"):
                assert faults.current_scope() == {
                    "chunk": 1, "task": 3, "phase": "bulk"
                }
            assert faults.current_scope() == {"chunk": 1}
        assert faults.current_scope() == {}

    def test_fire_respects_scope_and_at(self):
        rules = faults.install_faults("engine:chunk=2:at=1", mirror_env=False)
        with faults.scope(chunk=1):
            assert faults.fire("engine") is None  # wrong chunk
        with faults.scope(chunk=2):
            assert faults.fire("engine") is None  # matching probe 0: at=1
            assert faults.fire("engine") is rules[0]  # matching probe 1
            assert faults.fire("engine") is None  # past the at= position
        assert rules[0].fired == 1

    def test_clear_faults_disarms(self):
        faults.install_faults("engine")
        faults.clear_faults()
        assert faults.fire("engine") is None


class TestRecoveryLadder:
    def test_newton_divergence_retries_then_recovers(self, tech018):
        specs = _specs(tech018, [1, 2, 3])
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        simulate_ssn_cache_clear()  # force the bulk attempts through the solver
        faults.install_faults("newton:chunk=0:phase=bulk")
        runner = CampaignRunner(_config(chunk_size=3, max_retries=2))
        summaries = runner.run_simulate(specs)
        faults.clear_faults()

        assert [s.peak_voltage for s in summaries] == clean
        tel = runner.telemetry
        assert tel.retries == 2  # both re-attempts of the bulk chunk
        assert tel.chunks_failed == 1
        assert tel.degradations == 0  # recovered on the same scalar rung
        assert tel.unrecovered_failures == 0

    def test_worker_crash_degrades_to_serial(self, tech018):
        specs = _specs(tech018, [1, 2, 3, 4])
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        faults.install_faults("worker:chunk=0:task=0")
        runner = CampaignRunner(_config(chunk_size=4, max_workers=2))
        with pytest.warns(RuntimeWarning, match="process pool broke"):
            summaries = runner.run_simulate(specs)
        faults.clear_faults()

        assert [s.peak_voltage for s in summaries] == clean
        assert runner.telemetry.degradations == 1
        assert runner.telemetry.chunks_failed == 0  # the chunk still succeeded
        assert runner.telemetry.unrecovered_failures == 0

    def test_stall_past_deadline_is_retried(self, tech018):
        specs = _specs(tech018, [1, 2])
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        faults.install_faults(
            "stall:task=0:seconds=0.05:phase=bulk:attempts=0"
        )
        runner = CampaignRunner(
            _config(chunk_size=2, max_retries=2, deadline=0.01)
        )
        summaries = runner.run_simulate(specs)
        faults.clear_faults()

        assert [s.peak_voltage for s in summaries] == clean
        assert runner.telemetry.retries == 1
        assert runner.telemetry.unrecovered_failures == 0

    def test_batch_engine_fault_degrades_to_scalar(self, tech018):
        specs = _specs(tech018, [2, 3, 4])
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        faults.install_faults("engine:engine=batch")
        runner = CampaignRunner(
            _config(chunk_size=3, max_retries=1, engine="batch")
        )
        summaries = runner.run_simulate(specs)
        faults.clear_faults()

        # Every instance left the batch rung for the scalar fast path, so
        # the results are bitwise the scalar engine's results.
        assert [s.peak_voltage for s in summaries] == clean
        assert all(s.engine == "scalar" for s in summaries)
        tel = runner.telemetry
        assert tel.chunks_failed == 1
        assert tel.degradations == len(specs)
        assert tel.unrecovered_failures == 0

    def test_scalar_failure_exhausts_the_ladder(self, tech018):
        """Scalar is the last rung: an instance that fails there fails the
        campaign, with the failure counted rather than hidden."""
        specs = _specs(tech018, [1, 2])
        simulate_ssn_cache_clear()
        faults.install_faults(
            "newton:phase=bulk,newton:phase=instance:engine=scalar"
        )
        runner = CampaignRunner(_config(chunk_size=2, max_retries=1))
        with pytest.raises(CampaignError, match="failed on the scalar engine") as err:
            runner.run_simulate(specs)
        faults.clear_faults()

        tel = err.value.telemetry
        assert tel.chunks_failed == 1
        assert tel.retries == 2  # one bulk retry, one instance retry
        assert tel.degradations == 0  # no rung below scalar to drop to
        assert tel.unrecovered_failures == 1

    def test_exhausted_ladder_raises_campaign_error(self, tech018):
        specs = _specs(tech018, [1])
        simulate_ssn_cache_clear()
        faults.install_faults("newton")  # matches every rung and phase
        runner = CampaignRunner(_config(chunk_size=1, max_retries=0))
        with pytest.raises(CampaignError) as err:
            runner.run_simulate(specs)
        faults.clear_faults()
        assert err.value.telemetry is not None
        assert err.value.telemetry.unrecovered_failures == 1


class TestCrashAndResume:
    def test_torn_checkpoint_write_leaves_previous_journal(
        self, tech018, tmp_path
    ):
        specs = _specs(tech018, [1, 2, 3, 4])
        ckpt = tmp_path / "run.jsonl"
        # Probe 0 is the fresh-run header write; probe 1 is the commit
        # after chunk 0 — crash there, mid temp-file write.
        faults.install_faults("crash-write:at=1")
        runner = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        with pytest.raises(InjectedCrash):
            runner.run_simulate(specs)
        faults.clear_faults()

        # The journal on disk is the last successfully committed state
        # (the header-only file) — complete, parseable, no torn temp files.
        lines = ckpt.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["version"] == 1
        assert not list(tmp_path.glob("*.tmp"))

        resumed = CampaignRunner(
            _config(checkpoint=ckpt, chunk_size=2, resume=True)
        ).run_simulate(specs)
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        assert [s.peak_voltage for s in resumed] == clean

    def test_injected_interrupt_then_resume_is_bit_identical(
        self, tech018, tmp_path
    ):
        """The kill-and-resume contract: SIGINT semantics mid-campaign, a
        valid JSONL checkpoint on disk, and a resumed run whose results
        equal the uninterrupted run exactly."""
        specs = _specs(tech018, [1, 2, 3, 4, 5])
        clean = [s.peak_voltage for s in simulate_many(specs, engine="scalar")]
        ckpt = tmp_path / "run.jsonl"
        faults.install_faults("interrupt:chunk=1:at=0")
        first = CampaignRunner(_config(checkpoint=ckpt, chunk_size=2))
        with pytest.raises(KeyboardInterrupt):
            first.run_simulate(specs)

        # Chunk 0 was committed before the interrupt; the journal is valid.
        lines = ckpt.read_text().splitlines()
        assert [json.loads(line)["chunk"] for line in lines[1:]] == [0]

        # Same process, same armed plan (at=0 was consumed): resuming must
        # finish chunks 1-2 and splice the exact uninterrupted results.
        second = CampaignRunner(
            _config(checkpoint=ckpt, chunk_size=2, resume=True)
        )
        resumed = second.run_simulate(specs)
        faults.clear_faults()
        assert [s.peak_voltage for s in resumed] == clean

    def test_determinism_under_compound_failure(self, tech018, tmp_path):
        """The acceptance gate: one worker crash, one injected Newton
        divergence and one mid-run interrupt+resume — and the final
        SweepResult arrays are bit-identical to a clean serial run, with
        telemetry reporting the exact injected counts."""
        base = _specs(tech018, [1])[0]
        values = [1, 2, 3, 4, 5, 6]
        apply = lambda spec, n: dataclasses.replace(spec, n_drivers=int(n))
        estimators = {"linear": lambda spec: 0.02 * spec.n_drivers}
        clean = sweep("n_drivers", base, values, apply, estimators,
                      max_workers=1, engine="scalar")

        ckpt = tmp_path / "sweep.jsonl"
        faults.install_faults(
            "worker:chunk=0:task=0,"       # breaks the pool twice -> serial
            "newton:chunk=1:phase=bulk,"   # exhausts chunk 1's bulk budget
            "interrupt:chunk=2:at=0"       # SIGINT before chunk 2 runs
        )
        simulate_ssn_cache_clear()
        first = CampaignRunner(CampaignConfig(
            checkpoint=ckpt, chunk_size=2, max_retries=2, backoff_base=0.0,
            max_workers=2, engine="scalar",
        ))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(KeyboardInterrupt):
                first.run_sweep("n_drivers", base, values, apply, estimators)

        second = CampaignRunner(CampaignConfig(
            checkpoint=ckpt, chunk_size=2, max_retries=2, backoff_base=0.0,
            max_workers=2, engine="scalar", resume=True,
        ))
        result = second.run_sweep("n_drivers", base, values, apply, estimators)
        faults.clear_faults()

        assert result.values() == clean.values()
        assert result.simulated_peaks() == clean.simulated_peaks()
        assert result.estimate_series("linear") == \
            clean.estimate_series("linear")
        assert np.array_equal(
            np.asarray(result.simulated_peaks()),
            np.asarray(clean.simulated_peaks()),
        )

        # Exact injected counts, reconstructed across the interrupt via the
        # journal's per-chunk campaign counters.
        tel = second.telemetry
        assert tel.retries == 2          # chunk 1's two bulk re-attempts
        assert tel.degradations == 1     # chunk 0's pool -> serial fallback
        assert tel.chunks_failed == 1    # chunk 1 entered instance recovery
        assert tel.unrecovered_failures == 0
