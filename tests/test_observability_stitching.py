"""Cross-process stitching through the parallel map's worker envelope.

Worker processes record into their own tracer, registry and session
aggregator; one envelope ships what they recorded back with each result,
and the parent adopts it (spans re-parent under the dispatching
``parallel_map`` span).  The exactly-once guarantee is the point under
test: every task appears in the stitched trace, and every run in the
session telemetry, once — when it ran in a pool worker, and when a killed
worker broke the pool and the campaign recovered the chunk in-process.  A
broken pool outside a campaign raises, and the dead attempt records
nothing.
"""

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.analysis import simulate as simulate_module
from repro.analysis.campaign import CampaignRunner
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.parallel import _observability_config, _pool_invoke, parallel_map
from repro.analysis.simulate import (simulate_many, simulate_ssn_cache_clear,
                                     simulate_ssn_cached)
from repro.observability import metrics as obs_metrics
from repro.observability import trace
from repro.observability.export import to_prometheus_text
from repro.spice.telemetry import (SolverTelemetry, disable_session_telemetry,
                                   enable_session_telemetry)
from repro.testing import faults


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear_faults()
    trace.disable_tracing()
    obs_metrics.disable_metrics()
    disable_session_telemetry()
    simulate_ssn_cache_clear()
    yield
    faults.clear_faults()
    trace.disable_tracing()
    obs_metrics.disable_metrics()
    disable_session_telemetry()
    simulate_ssn_cache_clear()


def _traced_double(x):
    """Module-level (picklable) worker: two nested spans and a counter."""
    with trace.span("work_task", index=x):
        with trace.span("work_inner"):
            pass
    obs_metrics.inc("repro_test_tasks_total")
    return 2 * x


def _span_index(tracer):
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp.name, []).append(sp)
    return by_name


class TestPoolStitching:
    def test_two_workers_every_task_span_exactly_once(self):
        tracer = trace.enable_tracing()
        registry = obs_metrics.enable_metrics()
        results = parallel_map(_traced_double, range(4), max_workers=2)
        assert results == [0, 2, 4, 6]

        by_name = _span_index(tracer)
        (pm,) = by_name["parallel_map"]
        assert pm.attributes["used_pool"] is True

        tasks = by_name["work_task"]
        assert sorted(sp.attributes["index"] for sp in tasks) == [0, 1, 2, 3]
        assert all(sp.parent_id == pm.span_id for sp in tasks)
        # Worker spans carry the worker pid prefix, so stitched ids can
        # never collide with parent-side ids.
        parent_prefix = pm.span_id.split(".", 1)[0]
        assert all(
            sp.span_id.split(".", 1)[0] != parent_prefix for sp in tasks
        )

        inners = by_name["work_inner"]
        assert len(inners) == 4
        task_ids = {sp.span_id for sp in tasks}
        assert all(sp.parent_id in task_ids for sp in inners)

        all_ids = [sp.span_id for sp in tracer.spans]
        assert len(all_ids) == len(set(all_ids)) == 9
        # Rebasing sanity: adopted spans live on this process's timeline.
        assert all(sp.duration is not None and sp.duration >= 0
                   for sp in tracer.spans)
        assert all(pm.start <= sp.start <= pm.end for sp in tasks)

        assert registry.get("repro_test_tasks_total").value == 4

    def test_worker_metrics_merge_without_tracing(self):
        registry = obs_metrics.enable_metrics()
        results = parallel_map(_traced_double, range(4), max_workers=2)
        assert results == [0, 2, 4, 6]
        assert registry.get("repro_test_tasks_total").value == 4
        assert trace.active_tracer() is None


class TestBrokenPoolStitching:
    def test_killed_worker_keeps_task_spans_exactly_once(self, specs):
        """A worker killed on instance 0 breaks the pool on every bulk
        attempt; the chunk recovers its instances in-process.  Spans from
        the dead attempts die with their results, so each task still
        appears exactly once — parented under the chunk span, with the
        failed attempts recorded as span events."""
        faults.install_faults("worker:task=0")
        tracer = trace.enable_tracing()
        registry = obs_metrics.enable_metrics()
        runner = CampaignRunner(max_workers=2, engine="scalar",
                                backoff_base=0.0, max_retries=1)
        runner.run_specs(specs)

        by_name = _span_index(tracer)
        (chunk,) = by_name["chunk"]
        maps = by_name["parallel_map"]
        assert len(maps) == 2  # one per bulk attempt
        assert all(pm.attributes["used_pool"] is True for pm in maps)
        assert [ev["name"] for ev in chunk.events] == [
            "bulk_attempt_failed", "bulk_attempt_failed",
            "per_instance_recovery"]

        tasks = by_name["task"]
        assert sorted(sp.attributes["index"] for sp in tasks) == [0, 1, 2]
        # Recovery ran in this process, directly inside the chunk span.
        assert all(sp.parent_id == chunk.span_id for sp in tasks)
        parent_prefix = chunk.span_id.split(".", 1)[0]
        assert all(
            sp.span_id.split(".", 1)[0] == parent_prefix for sp in tasks
        )
        transients = by_name["transient"]
        assert len(transients) == 3
        task_ids = {sp.span_id for sp in tasks}
        assert all(sp.parent_id in task_ids for sp in transients)
        all_ids = [sp.span_id for sp in tracer.spans]
        assert len(all_ids) == len(set(all_ids))

        assert registry.get("repro_retries_total").value == 1
        assert registry.get("repro_chunks_failed_total").value == 1
        assert registry.get("repro_degradations_total") is None


def _run_simulate_many(specs, workers):
    simulate_many(specs, max_workers=workers, engine="scalar")


def _run_campaign(specs, workers):
    CampaignRunner(max_workers=workers, engine="scalar",
                   backoff_base=0.0).run_specs(specs)


def _session_counts(run, specs, workers):
    """Session counters of one cold-memo run (``phase_seconds`` dropped)."""
    simulate_ssn_cache_clear()
    session = enable_session_telemetry()
    try:
        run(specs, workers)
    finally:
        disable_session_telemetry()
    counts = session.as_dict()
    del counts["phase_seconds"]
    return counts


def _metric_lines(run, specs, workers):
    """Non-timing Prometheus lines of one cold-memo run (session off)."""
    simulate_ssn_cache_clear()
    registry = obs_metrics.enable_metrics()
    try:
        run(specs, workers)
    finally:
        obs_metrics.disable_metrics()
    return [line for line in to_prometheus_text(registry).splitlines()
            if "_seconds" not in line]


@pytest.fixture
def specs(tech018):
    return [DriverBankSpec(technology=tech018, n_drivers=n, inductance=1e-9,
                           rise_time=0.5e-9) for n in (1, 2, 3)]


@pytest.mark.parametrize("run", [_run_simulate_many, _run_campaign],
                         ids=["simulate_many", "campaign"])
class TestSessionExactlyOnce:
    def test_pooled_session_equals_serial(self, run, specs):
        serial = _session_counts(run, specs, 1)
        assert serial["newton_solves"] > 0
        assert _session_counts(run, specs, 2) == serial


@pytest.mark.parametrize("run", [_run_simulate_many, _run_campaign],
                         ids=["simulate_many", "campaign"])
class TestMetricsExactlyOnce:
    """Every run reaches the registry once, through ``record_session``, in
    whichever process it ran."""

    def test_pooled_metrics_equal_serial(self, run, specs):
        serial = _metric_lines(run, specs, 1)
        assert "repro_newton_iterations_per_solve_count 3" in serial
        assert _metric_lines(run, specs, 2) == serial


#: Campaign counters a worker killed on every bulk attempt adds to a clean
#: run (default ``max_retries=2``: both re-attempts, then one chunk recovery).
_KILLED_WORKER_COUNTS = {"retries": 2, "chunks_failed": 1}


class TestBrokenPoolExactlyOnce:
    """A killed worker is a chunk failure: the campaign's session and
    metrics equal the serial run's plus the exact recovery counters."""

    def test_campaign_session_counts_each_instance_once(self, specs):
        expected = _session_counts(_run_campaign, specs, 1)
        for name, count in _KILLED_WORKER_COUNTS.items():
            expected[name] += count
        faults.install_faults("worker:task=0")
        assert _session_counts(_run_campaign, specs, 2) == expected

    def test_campaign_metrics_count_the_chunk_failure(self, specs):
        serial = _metric_lines(_run_campaign, specs, 1)
        faults.install_faults("worker:task=0")
        broken = _metric_lines(_run_campaign, specs, 2)
        names = [f"repro_{name}_total" for name in _KILLED_WORKER_COUNTS]
        for name, count in _KILLED_WORKER_COUNTS.items():
            assert f"repro_{name}_total {float(count)}" in broken
        assert [line for line in broken
                if not any(name in line for name in names)] == serial

    def test_simulate_many_raises_and_records_nothing(self, specs,
                                                      monkeypatch):
        """Outside a campaign nothing recovers: the broken pool raises, and
        the tasks that finished in the dead pool are not counted."""
        monkeypatch.setattr(simulate_module, "simulate_ssn_cached",
                            _simulate_or_die_on_two)
        session = enable_session_telemetry()
        registry = obs_metrics.enable_metrics()
        with pytest.raises(BrokenProcessPool):
            simulate_many(specs, max_workers=2, engine="scalar")
        assert session.as_dict() == SolverTelemetry().as_dict()
        assert registry.get("repro_newton_solves_total") is None


def _simulate_or_die_on_two(spec, **kwargs):
    """Picklable ``simulate_ssn_cached`` whose pool worker dies on N = 2."""
    if spec.n_drivers == 2 and multiprocessing.parent_process() is not None:
        os._exit(13)
    return simulate_ssn_cached(spec, **kwargs)


def test_batch_and_scalar_export_the_same_newton_series(tech018):
    """One lockstep group on the batch engine observes what the scalar
    engine observes: one Newton histogram sample per instance."""
    specs = [DriverBankSpec(technology=tech018, n_drivers=2, inductance=ind,
                            rise_time=0.5e-9) for ind in (1e-9, 2e-9, 3e-9)]

    def newton_lines(engine):
        lines = _metric_lines(
            lambda s, _: simulate_many(s, engine=engine), specs, 1)
        assert f'repro_engine_selected_total{{engine="{engine}"}} 1.0' in lines
        assert "repro_batch_fallbacks_total" not in "\n".join(lines)
        return [line for line in lines if line.startswith("repro_newton_")]

    scalar = newton_lines("scalar")
    assert "repro_newton_iterations_per_solve_count 3" in scalar
    assert newton_lines("batch") == scalar


class TestEnvelope:
    def test_all_collectors_off_sends_no_envelope(self):
        assert _observability_config() is None
        assert _pool_invoke((_traced_double, 0, 3, None)) == (6, None)
