"""Unit and stitching tests for the durable event journal.

Covers the journal itself (schema-stamped events, the bounded ring,
append durability under the ``crash-write`` fault probe, size-triggered
atomic rotation, the journal-file readers behind ``repro events``) and
the cross-process guarantee: pool workers journal to memory only, their
events ride back with the results and fold into the parent's journal
exactly once — including when a killed worker fails a campaign chunk
attempt and the chunk lands on a fresh pool or recovers in-process.
"""

import json

import pytest

from repro.analysis import campaign as campaign_module
from repro.analysis.campaign import CampaignRunner
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.parallel import parallel_map
from repro.analysis.simulate import simulate_ssn_cached
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability import trace
from repro.observability.events import (
    EVENT_SCHEMA_VERSION,
    EventJournal,
    format_event,
    read_journal,
    summarize_events,
)
from repro.testing import faults
from repro.testing.faults import FaultRule, InjectedCrash


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear_faults()
    trace.disable_tracing()
    obs_metrics.disable_metrics()
    obs_events.disable_events()
    yield
    faults.clear_faults()
    trace.disable_tracing()
    obs_metrics.disable_metrics()
    obs_events.disable_events()


class TestEventJournal:
    def test_events_are_schema_stamped_and_sequenced(self):
        journal = EventJournal()
        first = journal.emit("chunk_retry", chunk=3, attempt=1)
        second = journal.emit("checkpoint_write")
        assert first["schema"] == EVENT_SCHEMA_VERSION
        assert (first["seq"], second["seq"]) == (1, 2)
        assert first["pid"] == second["pid"]
        assert first["t"] <= second["t"]
        assert first["attributes"] == {"chunk": 3, "attempt": 1}
        assert "attributes" not in second  # empty attrs are omitted
        assert journal.recorded == 2

    def test_span_correlation_id(self):
        trace.enable_tracing()
        journal = EventJournal()
        with trace.span("campaign") as sp:
            inside = journal.emit("campaign_resumed")
        outside = journal.emit("service_ready")
        assert inside["span_id"] == sp.span_id
        assert outside["span_id"] is None

    def test_ring_is_bounded_oldest_dropped(self):
        journal = EventJournal(ring_size=3)
        for i in range(5):
            journal.emit("e", i=i)
        kept = [event["attributes"]["i"] for event in journal.events()]
        assert kept == [2, 3, 4]
        assert journal.recorded == 5
        assert [e["attributes"]["i"] for e in journal.tail(2)] == [3, 4]
        assert journal.tail(0) == []

    def test_ring_size_validated(self):
        with pytest.raises(ValueError, match="ring_size"):
            EventJournal(ring_size=0)

    def test_file_append_and_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.emit("store_quarantined", reason="checksum")
        journal.emit("service_ready", port=8431)
        events = read_journal(path)
        assert [e["name"] for e in events] == ["store_quarantined",
                                               "service_ready"]
        assert events[0]["attributes"]["reason"] == "checksum"
        # Every line is one canonical JSON document.
        lines = path.read_text().splitlines()
        assert all(json.loads(line) for line in lines)

    def test_config_drops_path_for_workers(self, tmp_path):
        journal = EventJournal(tmp_path / "e.jsonl", ring_size=7,
                               max_bytes=1234)
        cfg = journal.config()
        assert cfg == {"ring_size": 7, "max_bytes": 1234}
        worker = EventJournal(**cfg)
        assert worker.path is None  # memory-only: one writer per file

    def test_rotation_bounds_the_segment(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path, ring_size=4, max_bytes=600)
        for i in range(40):
            journal.emit("e", i=i)
        # The file was rotated down to (at most) the ring's contents
        # whenever it crossed max_bytes, so it stays bounded and its tail
        # is the most recent history.
        events = read_journal(path)
        assert 0 < len(events) <= journal.ring_size + 1
        assert events[-1]["attributes"]["i"] == 39
        assert path.stat().st_size < 600 + 200  # one line of slack

    def test_crash_mid_append_leaves_no_torn_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path)
        journal.emit("first")
        faults.install_faults([FaultRule(kind="crash-write", phase="events")],
                              mirror_env=False)
        with pytest.raises(InjectedCrash):
            journal.emit("second")
        faults.clear_faults()
        # The probe fires before any bytes are written: the journal still
        # parses line-for-line and holds only the pre-crash event.
        assert [e["name"] for e in read_journal(path)] == ["first"]
        assert path.read_text().endswith("\n")
        journal.emit("third")
        assert [e["name"] for e in read_journal(path)] == ["first", "third"]

    def test_crash_mid_rotation_preserves_old_segment(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = EventJournal(path, ring_size=4, max_bytes=10 ** 9)
        for i in range(6):
            journal.emit("e", i=i)
        before = path.read_text()
        # Force a rotation attempt and crash between its two chunks; the
        # append probe is matching probe 0, the mid-rotation probe is 1.
        journal.max_bytes = 1
        faults.install_faults(
            [FaultRule(kind="crash-write", phase="events", at=1)],
            mirror_env=False)
        with pytest.raises(InjectedCrash):
            journal.emit("trigger")
        faults.clear_faults()
        # atomic_write never replaced the file: old segment + the append
        # that triggered rotation, no partial rewrite.
        trigger_line = json.dumps(journal.events()[-1], sort_keys=True) + "\n"
        assert path.read_text() == before + trigger_line

    def test_events_scope_does_not_catch_other_phases(self, tmp_path):
        faults.install_faults([FaultRule(kind="crash-write", phase="store")],
                              mirror_env=False)
        journal = EventJournal(tmp_path / "e.jsonl")
        journal.emit("unaffected")
        assert len(read_journal(journal.path)) == 1


class TestModuleGlobals:
    def test_disabled_helpers_are_noops(self):
        assert obs_events.emit("anything", k=1) is None
        assert obs_events.snapshot_events() == []
        assert obs_events.adopt_events([{"name": "x"}]) == 0
        assert obs_events.active_journal() is None

    def test_enable_emit_disable(self, tmp_path):
        journal = obs_events.enable_events(tmp_path / "e.jsonl")
        assert obs_events.active_journal() is journal
        event = obs_events.emit("service_ready", port=0)
        assert event is not None and event["name"] == "service_ready"
        assert [e["name"] for e in obs_events.snapshot_events()] == \
            ["service_ready"]
        obs_events.disable_events()
        assert obs_events.emit("after") is None

    def test_adopt_preserves_worker_identity(self):
        obs_events.enable_events()
        payload = [{"schema": EVENT_SCHEMA_VERSION, "seq": 9, "t": 123.0,
                    "pid": 4242, "name": "work_event", "span_id": "ab.cd"}]
        assert obs_events.adopt_events(payload) == 1
        (adopted,) = obs_events.snapshot_events()
        assert (adopted["pid"], adopted["seq"]) == (4242, 9)
        assert adopted["t"] == 123.0  # wall clock: no rebasing needed


class TestJournalFileHelpers:
    def test_read_journal_is_lenient(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"name": "ok", "t": 1.0}\n'
                        "\n"
                        "not json\n"
                        "[1, 2]\n"
                        '{"name": "also ok"}\n')
        assert [e["name"] for e in read_journal(path)] == ["ok", "also ok"]
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_summarize_counts_by_name(self):
        events = [{"name": "a", "t": 1.0}, {"name": "b", "t": 2.5},
                  {"name": "a", "t": 2.0}]
        text = summarize_events(events)
        assert text.startswith("3 events, 2 kinds, spanning 1.500 s")
        lines = text.splitlines()
        assert any(line.split() == ["a", "2"] for line in lines)
        assert summarize_events([]) == "no events"

    def test_format_event(self):
        line = format_event({"t": 0.0, "pid": 7, "seq": 3,
                             "name": "chunk_retry",
                             "attributes": {"chunk": 1, "attempt": 2}})
        assert line.endswith("[7#3] chunk_retry attempt=2 chunk=1")
        assert format_event({"name": "bare"}).startswith("--:--:-- [?#?] bare")


def _emitting_double(x):
    """Module-level (picklable) worker: one journal event per task."""
    obs_events.emit("work_event", index=x)
    return 2 * x


class TestPoolStitching:
    def test_two_workers_every_event_exactly_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        journal = obs_events.enable_events(path)
        results = parallel_map(_emitting_double, range(4), max_workers=2)
        assert results == [0, 2, 4, 6]

        work = [e for e in journal.events() if e["name"] == "work_event"]
        assert sorted(e["attributes"]["index"] for e in work) == [0, 1, 2, 3]
        # Adopted events keep worker identity; workers are other processes.
        assert all(e["pid"] != journal._pid for e in work)
        # Exactly-once and durable: the parent's file holds each task's
        # event exactly once (workers are memory-only, one writer per file).
        on_disk = [e for e in read_journal(path) if e["name"] == "work_event"]
        assert sorted(e["attributes"]["index"] for e in on_disk) == \
            [0, 1, 2, 3]
        # Per-worker streams are never reordered.
        by_pid = {}
        for e in work:
            by_pid.setdefault(e["pid"], []).append(e["seq"])
        for seqs in by_pid.values():
            assert seqs == sorted(seqs)

    @pytest.mark.parametrize("plan, failed_attempts, in_pool", [
        ("worker:task=0:attempts=0", 1, True),  # a fresh pool lands it
        ("worker:task=0", 3, False),            # in-process recovery
    ], ids=["retried_pool", "recovered_in_process"])
    def test_killed_worker_keeps_events_exactly_once(
            self, tmp_path, monkeypatch, tech018, plan, failed_attempts,
            in_pool):
        """A worker killed on instance 0 fails the chunk's bulk attempt.
        Events from the dead attempts die with their results, so each
        instance's event lands exactly once, from whichever process ran
        the attempt that landed, next to one ``chunk_retry`` per failed
        attempt."""
        monkeypatch.setattr(campaign_module, "simulate_ssn_cached",
                            _emitting_simulate)
        specs = [DriverBankSpec(technology=tech018, n_drivers=n,
                                inductance=1e-9, rise_time=0.5e-9)
                 for n in (1, 2, 3, 4)]
        faults.install_faults(plan)
        path = tmp_path / "events.jsonl"
        journal = obs_events.enable_events(path)
        CampaignRunner(max_workers=2, engine="scalar", backoff_base=0.0,
                       max_retries=2).run_specs(specs)

        names = [e["name"] for e in journal.events()]
        assert names.count("chunk_retry") == failed_attempts
        assert names.count("chunk_degraded") == (not in_pool)
        work = [e for e in journal.events() if e["name"] == "work_event"]
        assert sorted(e["attributes"]["n"] for e in work) == [1, 2, 3, 4]
        assert all((e["pid"] != journal._pid) == in_pool for e in work)
        on_disk = [e for e in read_journal(path) if e["name"] == "work_event"]
        assert sorted(e["attributes"]["n"] for e in on_disk) == [1, 2, 3, 4]


def _emitting_simulate(spec, **kwargs):
    """Picklable ``simulate_ssn_cached`` that journals one event per run."""
    obs_events.emit("work_event", n=spec.n_drivers)
    return simulate_ssn_cached(spec, **kwargs)
