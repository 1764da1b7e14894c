"""Unit tests for the observability package.

Covers the span tree (nesting, detail levels, sampling, caps), the metrics
registry (types, merge compatibility with ``SolverTelemetry``), the
exporters (Chrome trace schema, Prometheus text, timeline summaries), the
atomic-write helper, the phase-timing/span-timing equivalence contract,
and the CLI flags that wire everything together.
"""

import dataclasses
import json
import math
import os
import sys
import threading
import time

import pytest

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import simulate_ssn, simulate_ssn_cache_clear
from repro.cli import main
from repro.observability import (
    MetricsRegistry,
    atomic_write,
    atomic_write_json,
    to_chrome_trace,
    to_prometheus_text,
    timeline_summary,
    validate_chrome_trace,
)
from repro.observability import metrics as obs_metrics
from repro.observability import trace
from repro.observability.export import spans_from_chrome_trace, summarize_trace_file
from repro.spice.telemetry import SolverTelemetry, record_telemetry


@pytest.fixture(autouse=True)
def _observability_off():
    """Never leak a tracer/registry into (or out of) a test."""
    trace.disable_tracing()
    obs_metrics.disable_metrics()
    yield
    trace.disable_tracing()
    obs_metrics.disable_metrics()


def _spec(tech, n=1):
    return DriverBankSpec(
        technology=tech, n_drivers=n, inductance=1e-9, rise_time=0.5e-9
    )


class TestSpanTree:
    def test_nesting_and_parent_ids(self):
        tracer = trace.enable_tracing()
        with trace.span("campaign", kind="sweep") as root:
            assert trace.current_span_id() == root.span_id
            with trace.span("chunk", chunk=0) as child:
                assert child.parent_id == root.span_id
                with trace.span("task") as grandchild:
                    assert grandchild.parent_id == child.span_id
        assert trace.current_span_id() is None
        names = [sp.name for sp in tracer.spans]
        assert names == ["task", "chunk", "campaign"]  # completion order
        assert root.attributes["kind"] == "sweep"
        assert all(sp.duration >= 0 for sp in tracer.spans)

    def test_span_ids_unique_and_pid_prefixed(self):
        tracer = trace.enable_tracing()
        with trace.span("a"):
            pass
        with trace.span("a"):
            pass
        ids = [sp.span_id for sp in tracer.spans]
        assert len(set(ids)) == 2
        assert all(sp_id.startswith(f"{os.getpid():x}.") for sp_id in ids)

    def test_exception_records_error_attribute(self):
        tracer = trace.enable_tracing()
        with pytest.raises(ValueError):
            with trace.span("task"):
                raise ValueError("boom")
        (sp,) = tracer.spans
        assert sp.attributes["error"] == "ValueError: boom"
        assert sp.end is not None

    def test_events_are_timestamped(self):
        tracer = trace.enable_tracing()
        with trace.span("chunk") as sp:
            sp.add_event("bulk_attempt_failed", attempt=1)
        (sp,) = tracer.spans
        (ev,) = sp.events
        assert ev["name"] == "bulk_attempt_failed"
        assert ev["attempt"] == 1
        assert sp.start <= ev["t"] <= sp.end


class TestDisabledMode:
    def test_span_returns_shared_noop(self):
        sp = trace.span("anything", level="full", n=3)
        assert sp is trace.NOOP_SPAN
        with sp as inner:
            inner.set_attribute("k", 1)  # must not raise
            inner.add_event("e")
        assert sp.recorded is False and sp.duration is None
        assert trace.active_tracer() is None

    def test_metric_helpers_are_noops(self):
        obs_metrics.inc("repro_anything_total")
        obs_metrics.observe("repro_example_seconds", 1e-12)
        obs_metrics.set_gauge("repro_depth", 3)
        assert obs_metrics.active_registry() is None
        assert obs_metrics.snapshot_metrics() is None


class TestDetailLevels:
    def test_coarser_tracer_noops_finer_spans(self):
        tracer = trace.enable_tracing(detail="newton")
        assert tracer.wants("phase") and tracer.wants("newton")
        assert not tracer.wants("full")
        assert trace.span("assembly", level="full") is trace.NOOP_SPAN
        with trace.span("newton_solve", level="newton"):
            pass
        assert [sp.name for sp in tracer.spans] == ["newton_solve"]

    def test_unknown_detail_rejected(self):
        with pytest.raises(ValueError, match="unknown detail"):
            trace.enable_tracing(detail="verbose")


class TestSampling:
    def test_sample_zero_records_nothing_but_keeps_structure(self):
        tracer = trace.enable_tracing(sample=0.0)
        with trace.span("root") as root:
            assert root.recorded is False
            with trace.span("child") as child:
                # Children inherit the root's decision: whole trees only.
                assert child.recorded is False
                assert child.parent_id == root.span_id
        assert tracer.spans == []

    def test_sampling_is_seed_deterministic(self):
        def rooted_keeps(seed):
            tracer = trace.enable_tracing(sample=0.5, seed=seed)
            for _ in range(32):
                with trace.span("root"):
                    pass
            return [sp.name for sp in tracer.spans]

        keeps = rooted_keeps(7)
        assert keeps == rooted_keeps(7)
        assert 0 < len(keeps) < 32

    def test_invalid_sample_rejected(self):
        with pytest.raises(ValueError, match="sample"):
            trace.enable_tracing(sample=1.5)


class TestMaxSpans:
    def test_cap_counts_drops(self):
        tracer = trace.enable_tracing(max_spans=2)
        for _ in range(5):
            with trace.span("s"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


class TestElapsed:
    def test_closed_span_duration_is_the_phase_time(self):
        trace.enable_tracing()
        start = time.perf_counter()
        with trace.span("stepping") as sp:
            pass
        assert trace.elapsed(sp, start) == sp.duration

    def test_noop_span_falls_back_to_perf_counter(self):
        start = time.perf_counter()
        value = trace.elapsed(trace.NOOP_SPAN, start)
        assert 0 <= value < 1.0


class TestStitchingSerialization:
    def test_snapshot_adopt_reparents_roots_only(self):
        trace.enable_tracing()
        with trace.span("task", index=3) as task:
            with trace.span("inner"):
                pass
        payload = trace.snapshot_spans()
        assert [item["name"] for item in payload] == ["inner", "task"]
        trace.disable_tracing()

        parent = trace.enable_tracing()
        with trace.span("parallel_map") as pm:
            adopted = trace.adopt_spans(payload, parent_id=pm.span_id)
        assert adopted == 2
        by_name = {sp.name: sp for sp in parent.spans if sp.name != "parallel_map"}
        # The payload root is re-parented; the child keeps its real parent.
        assert by_name["task"].parent_id == pm.span_id
        assert by_name["inner"].parent_id == task.span_id
        assert by_name["task"].attributes["index"] == 3
        assert by_name["task"].duration >= 0

    def test_adopt_without_tracer_is_a_noop(self):
        assert trace.adopt_spans([{"name": "x"}], parent_id=None) == 0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("repro_retries_total").inc()
        reg.counter("repro_retries_total").inc(2)
        assert reg.get("repro_retries_total").value == 3
        with pytest.raises(ValueError):
            reg.counter("repro_retries_total").inc(-1)

        reg.gauge("repro_depth").set(4)
        assert reg.get("repro_depth").value == 4.0

        hist = reg.histogram("repro_newton_iterations_per_solve")
        for it in (1, 2, 3, 9, 100):
            hist.observe(it)
        assert hist.count == 5 and hist.sum == 115
        hist.observe(math.nan)  # ignored, not propagated
        assert hist.count == 5

    def test_labels_key_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("repro_engine_selected_total", labels={"engine": "batch"}).inc()
        reg.counter("repro_engine_selected_total", labels={"engine": "scalar"}).inc(2)
        assert reg.get("repro_engine_selected_total", {"engine": "batch"}).value == 1
        assert reg.get("repro_engine_selected_total", {"engine": "scalar"}).value == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("repro_x_total")

    def test_merge_matches_telemetry_merge(self):
        """record_telemetry(a) ⊕ record_telemetry(b) == record(a.merge(b))."""
        a = SolverTelemetry(newton_iterations=10, retries=1)
        a.add_phase_seconds("stepping", 0.5)
        b = SolverTelemetry(newton_iterations=4, degradations=2)
        b.add_phase_seconds("stepping", 0.25)

        left = MetricsRegistry()
        record_telemetry(left, a)
        right = MetricsRegistry()
        record_telemetry(right, b)
        left.merge(right)

        merged_tel = SolverTelemetry.aggregate([a, b])
        expected = MetricsRegistry()
        record_telemetry(expected, merged_tel)

        assert left.get("repro_newton_iterations_total").value == \
            expected.get("repro_newton_iterations_total").value == 14
        got = left.get("repro_phase_seconds", {"phase": "stepping"})
        want = expected.get("repro_phase_seconds", {"phase": "stepping"})
        assert got.sum == want.sum == 0.75
        # Counts differ by design: two runs observed vs one merged record.
        assert got.count == 2

    def test_dict_round_trip_and_bucket_mismatch(self):
        reg = MetricsRegistry()
        reg.counter("repro_retries_total").inc(3)
        reg.histogram("repro_example_seconds").observe(1e-12)
        clone = MetricsRegistry().merge_dict(reg.as_dict())
        assert clone.as_dict() == reg.as_dict()

        bad = reg.as_dict()
        other = MetricsRegistry()
        other.histogram("repro_example_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bucket mismatch"):
            other.merge_dict(bad)

    def test_one_newton_sample_per_run(self):
        reg = MetricsRegistry()
        record_telemetry(reg, SolverTelemetry(newton_solves=4, newton_iterations=10))
        record_telemetry(reg, SolverTelemetry(retries=1))  # no solve, no sample
        hist = reg.get("repro_newton_iterations_per_solve")
        assert (hist.count, hist.sum) == (1, 2.5)

    def test_concurrent_runs_lose_no_update(self):
        """Server compute threads record runs at once; the first use of a
        series must not drop a concurrent thread's increment."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                reg = obs_metrics.enable_metrics()
                barrier = threading.Barrier(4, timeout=10)
                run = SolverTelemetry(newton_solves=1, newton_iterations=3)

                def record():
                    barrier.wait()
                    record_telemetry(reg, run)
                    obs_metrics.inc("repro_x_total")

                threads = [threading.Thread(target=record) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert reg.get("repro_newton_solves_total").value == 4
                assert reg.get("repro_newton_iterations_per_solve").count == 4
                assert reg.get("repro_x_total").value == 4
        finally:
            sys.setswitchinterval(interval)
            obs_metrics.disable_metrics()

    def test_telemetry_extras_flow_into_counters(self):
        tel = SolverTelemetry()
        tel.extras["future_counter"] = 7
        reg = MetricsRegistry()
        record_telemetry(reg, tel)
        assert reg.get("repro_future_counter_total").value == 7

    def test_quantile_accessor(self):
        reg = MetricsRegistry()
        hist = reg.histogram("repro_example_seconds", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.7, 5.0):
            hist.observe(v)
        # Registry accessor delegates to the histogram's bucket-bound
        # quantile estimate.
        assert reg.quantile("repro_example_seconds", 0.5) == hist.quantile(0.5)
        assert reg.quantile("repro_example_seconds", 0.99) == hist.quantile(0.99)
        # Unknown series is nan, not a KeyError — callers poll optimistically.
        assert math.isnan(reg.quantile("repro_absent_seconds", 0.5))
        reg.counter("repro_x_total").inc()
        with pytest.raises(TypeError, match="histogram"):
            reg.quantile("repro_x_total", 0.5)


class TestPrometheusText:
    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_retries_total", help="chunk retries").inc(2)
        reg.gauge("repro_depth").set(1)
        hist = reg.histogram("repro_newton_iterations_per_solve")
        hist.observe(1)
        hist.observe(3)
        hist.observe(999)
        text = to_prometheus_text(reg)
        lines = text.splitlines()
        assert "# HELP repro_retries_total chunk retries" in lines
        assert "# TYPE repro_retries_total counter" in lines
        assert "repro_retries_total 2.0" in lines
        assert "# TYPE repro_newton_iterations_per_solve histogram" in lines
        # Buckets are cumulative and end at +Inf == _count.
        assert 'repro_newton_iterations_per_solve_bucket{le="1.0"} 1' in lines
        assert 'repro_newton_iterations_per_solve_bucket{le="4.0"} 2' in lines
        assert 'repro_newton_iterations_per_solve_bucket{le="+Inf"} 3' in lines
        assert "repro_newton_iterations_per_solve_count 3" in lines
        assert text.endswith("\n")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", labels={"p": 'a"b\\c'}).inc()
        text = to_prometheus_text(reg)
        assert r'p="a\"b\\c"' in text

    def test_export_is_byte_deterministic_across_round_trip(self):
        """Scrape stability contract: the exposition text of a registry and
        of its dict-round-tripped clone are byte-identical — float bucket
        bounds and sample sums render via ``repr`` (shortest exact round
        trip), so a restored registry scrapes the same bytes.
        """
        reg = MetricsRegistry()
        reg.counter("repro_retries_total").inc(3)
        reg.gauge("repro_depth").set(0.1 + 0.2)  # a classic non-exact float
        hist = reg.histogram("repro_example_seconds",
                             buckets=(1e-12, 3.3333333333333335e-1, 2.0))
        for v in (7e-13, 0.1, 0.30000000000000004, 1.9999999999999998):
            hist.observe(v)
        text1 = to_prometheus_text(reg)
        clone = MetricsRegistry().merge_dict(
            json.loads(json.dumps(reg.as_dict())))
        assert to_prometheus_text(clone) == text1
        # The awkward bucket bound survives exactly (repr rendering — the
        # shortest string that parses back to the same double).
        assert f'le="{3.3333333333333335e-1!r}"' in text1


class TestChromeTraceExport:
    def _spans(self):
        tracer = trace.enable_tracing()
        with trace.span("campaign") as sp:
            sp.add_event("resumed")
            with trace.span("chunk", chunk=1):
                pass
        return tracer

    def test_export_validates_and_nests(self):
        tracer = self._spans()
        obj = validate_chrome_trace(to_chrome_trace(tracer.spans, tracer))
        complete = [ev for ev in obj["traceEvents"] if ev["ph"] == "X"]
        assert {ev["name"] for ev in complete} == {"campaign", "chunk"}
        by_name = {ev["name"]: ev for ev in complete}
        assert by_name["chunk"]["args"]["parent_id"] == \
            by_name["campaign"]["args"]["span_id"]
        assert by_name["chunk"]["args"]["chunk"] == 1
        assert min(ev["ts"] for ev in complete) == 0.0  # rebased to origin
        instants = [ev for ev in obj["traceEvents"] if ev["ph"] == "i"]
        assert [ev["name"] for ev in instants] == ["resumed"]
        assert obj["otherData"]["schema"] == "repro-trace-1"

    def test_validator_rejects_corruption(self):
        tracer = self._spans()
        obj = to_chrome_trace(tracer.spans, tracer)
        dup = json.loads(json.dumps(obj))
        dup["traceEvents"].append(dict(dup["traceEvents"][1]))
        with pytest.raises(ValueError, match="duplicate span id"):
            validate_chrome_trace(dup)

        orphan = json.loads(json.dumps(obj))
        for ev in orphan["traceEvents"]:
            if ev["ph"] == "X" and ev["args"].get("parent_id"):
                ev["args"]["parent_id"] = "dead.beef"
        with pytest.raises(ValueError, match="unknown parent"):
            validate_chrome_trace(orphan)

        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({"events": []})

    def test_round_trip_through_file(self, tmp_path):
        tracer = self._spans()
        spans = spans_from_chrome_trace(to_chrome_trace(tracer.spans, tracer))
        assert {sp.name for sp in spans} == {"campaign", "chunk"}
        roots = [sp for sp in spans if sp.parent_id is None]
        assert [sp.name for sp in roots] == ["campaign"]


class TestTimelineSummary:
    def test_siblings_collapse_by_name(self):
        tracer = trace.enable_tracing()
        with trace.span("stepping"):
            for _ in range(3):
                with trace.span("newton_solve", level="newton", mode="tran"):
                    pass
        text = timeline_summary(tracer.spans)
        assert "newton_solve x3" in text
        assert "mode=tran" in text  # shared attribute surfaces
        assert text.startswith("trace: 4 spans")

    def test_empty_trace(self):
        assert "no spans" in timeline_summary([])

    def test_summarize_trace_file_reports_drops(self, tmp_path):
        tracer = trace.enable_tracing(max_spans=1)
        with trace.span("a"):
            pass
        with trace.span("b"):
            pass
        path = tmp_path / "t.json"
        obj = to_chrome_trace(tracer.spans, tracer)
        path.write_text(json.dumps(obj))
        text = summarize_trace_file(path)
        assert "1 spans" in text
        assert "1 spans dropped" in text


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write(path, "first\n")
        atomic_write(path, "second\n")
        assert path.read_text() == "second\n"
        assert os.listdir(tmp_path) == ["out.txt"]  # no temp leftovers

    def test_crash_mid_write_preserves_previous_content(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        atomic_write(path, "intact\n")

        def chunks():
            yield "partial\n"
            raise RuntimeError("injected crash mid write")

        with pytest.raises(RuntimeError, match="mid write"):
            atomic_write(path, chunks())
        assert path.read_text() == "intact\n"
        assert os.listdir(tmp_path) == ["journal.jsonl"]

    def test_json_helper_round_trips(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_json(path, {"b": 1, "a": [1, 2]})
        assert json.loads(path.read_text()) == {"b": 1, "a": [1, 2]}
        assert path.read_text().endswith("\n")


class TestPhaseTimingEquivalence:
    def test_phase_seconds_equal_span_durations_when_traced(self, tech018):
        """Satellite contract: one timing source.  With tracing active the
        telemetry's phase wall-clock *is* the span's duration, bit for bit.
        """
        simulate_ssn_cache_clear()
        tracer = trace.enable_tracing(detail="phase")
        tel = simulate_ssn(_spec(tech018)).telemetry
        by_name = {}
        for sp in tracer.spans:
            by_name.setdefault(sp.name, []).append(sp)
        assert tel.phase_seconds["ic"] == by_name["ic"][0].duration
        assert tel.phase_seconds["stepping"] == by_name["stepping"][0].duration
        assert tel.phase_seconds["total"] == by_name["transient"][0].duration

    def test_untraced_phase_seconds_still_populated(self, tech018):
        simulate_ssn_cache_clear()
        tel = simulate_ssn(_spec(tech018)).telemetry
        assert set(tel.phase_seconds) >= {"ic", "stepping", "total"}
        assert all(v >= 0 for v in tel.phase_seconds.values())


class TestCliObservability:
    def test_flags_accepted_on_every_command(self):
        from repro.cli import build_parser

        for argv in (["fit"], ["estimate", "-n", "1"], ["report", "fig1"],
                     ["sweep", "--values", "1"], ["simulate", "-n", "1"]):
            args = build_parser().parse_args(
                argv + ["--trace", "t.json", "--metrics", "m.prom",
                        "--trace-sample", "0.5", "--trace-detail", "full"])
            assert args.trace == "t.json" and args.metrics == "m.prom"
            assert args.trace_sample == 0.5 and args.trace_detail == "full"

    def test_traced_sweep_acceptance(self, tmp_path, capsys):
        """Acceptance: a traced Fig. 3-style sweep exports a valid nested
        Chrome trace plus Prometheus text carrying the Newton-iteration and
        phase-time histograms, and the summarizer reads the file back.
        """
        trace_path = tmp_path / "sweep.trace.json"
        prom_path = tmp_path / "sweep.prom"
        tel_path = tmp_path / "sweep.telemetry.json"
        assert main([
            "sweep", "--values", "1,2", "-l", "1e-9",
            "--trace", str(trace_path), "--trace-detail", "full",
            "--metrics", str(prom_path), "--telemetry-json", str(tel_path),
        ]) == 0
        capsys.readouterr()

        obj = validate_chrome_trace(json.loads(trace_path.read_text()))
        events = {ev["args"]["span_id"]: ev
                  for ev in obj["traceEvents"] if ev["ph"] == "X"}
        newton = [ev for ev in events.values() if ev["name"] == "newton_solve"]
        assert newton, "full-detail trace must carry newton_solve spans"
        chain = []
        ev = newton[-1]
        while ev is not None:
            chain.append(ev["name"])
            parent = ev["args"].get("parent_id")
            ev = events.get(parent) if parent else None
        assert chain[-1] == "campaign"
        assert {"task", "transient", "stepping"} <= set(chain)

        prom = prom_path.read_text()
        assert "repro_newton_iterations_per_solve_bucket" in prom
        assert 'repro_phase_seconds_bucket{phase="stepping"' in prom
        assert "repro_engine_selected_total" in prom

        tel = json.loads(tel_path.read_text())
        assert tel["ok"] is True and tel["newton_iterations"] > 0

        assert main(["trace", "summarize", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace:")
        assert "newton_solve" in out

    def test_trace_sample_zero_writes_empty_valid_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json"
        assert main(["fit", "--trace", str(trace_path),
                     "--trace-sample", "0.0"]) == 0
        capsys.readouterr()
        obj = validate_chrome_trace(json.loads(trace_path.read_text()))
        assert [ev for ev in obj["traceEvents"] if ev["ph"] == "X"] == []
        assert main(["trace", "summarize", str(trace_path)]) == 0
        assert "no spans" in capsys.readouterr().out

    def test_telemetry_json_is_written_atomically(self, tmp_path, monkeypatch):
        """The CLI telemetry summary goes through the shared atomic-write
        helper (tempfile + os.replace), not a plain open/write."""
        calls = []
        import repro.cli as cli_mod

        real = cli_mod.atomic_write_json

        def spy(path, payload, **kwargs):
            calls.append(str(path))
            return real(path, payload, **kwargs)

        monkeypatch.setattr(cli_mod, "atomic_write_json", spy)
        tel_path = tmp_path / "tel.json"
        assert main(["fit", "--telemetry-json", str(tel_path)]) == 0
        assert calls == [str(tel_path)]
        assert json.loads(tel_path.read_text())["ok"] is True

    def test_cli_leaves_observability_disabled(self, tmp_path, capsys):
        assert main(["fit", "--trace", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.prom")]) == 0
        capsys.readouterr()
        assert trace.active_tracer() is None
        assert obs_metrics.active_registry() is None
