"""Self-tests of the benchmark harness: ``pytest benchmarks/ssnbench``.

Not part of the repository's tier-1 suite: the smoke test runs every
workload for a second each and builds the serve fixture on first use.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hostspeed
import run
import serve
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# -- statistics ----------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (10_000, 99.9), (1000, 99.0), (999, 95.0), (200, 95.0), (100, 90.0),
    (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_host_speed_scale_uses_the_window_or_the_nearest_sample():
    samples = [(0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 0.5)]
    ref = hostspeed.REFERENCE_MS
    # Mean probe time 3 ms in the window: times there read 1/3 as long.
    assert hostspeed.scale(samples, 0.5, 2.5) == pytest.approx(ref / 3.0)
    # Shorter than the probe period: the sample nearest the middle.
    assert hostspeed.scale(samples, 2.9, 2.95) == pytest.approx(ref / 0.5)


def test_quantile_interpolates_like_numpy_linear():
    assert run.quantile([4, 1, 3, 2], 0.5) == 2.5
    assert run.quantile([1, 2, 3, 4, 5], 0.9) == pytest.approx(4.6)
    assert run.quantile([], 0.5) == 0.0


# -- self time -----------------------------------------------------------------------


def _spans(rows):
    """rows: (name, start, end, parent index, thread)."""
    names = sorted({r[0] for r in rows})
    return {"names": names, "name": [names.index(r[0]) for r in rows],
            "start": [r[1] for r in rows], "end": [r[2] for r in rows],
            "parent": [r[3] for r in rows], "thread": [r[4] for r in rows]}


def test_self_time_subtracts_same_thread_children_only():
    spans = _spans([
        ("outer", 0.0, 10.0, -1, 1),
        ("inner", 2.0, 5.0, 0, 1),
        ("leaf", 3.0, 4.0, 1, 1),
        ("inner", 6.0, 7.0, 0, 1),
        # Caused by "outer" but run on another thread: outer's thread was
        # free meanwhile, so it does not reduce outer's self time.
        ("worker", 4.0, 9.0, 0, 2),
        ("leaf", 5.0, 6.0, 4, 2),
    ])
    times = tracing.layer_times(spans)
    assert times["outer"]["self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert times["inner"] == {"count": 2, "total_s": pytest.approx(4.0),
                              "self_s": pytest.approx(3.0)}
    assert times["worker"]["self_s"] == pytest.approx(4.0)
    assert times["leaf"]["self_s"] == pytest.approx(2.0)
    assert set(tracing.layer_times(spans, thread_id=2)) == {"worker", "leaf"}


def test_recorder_links_parents_across_threads():
    recorder = tracing.SpanRecorder()

    def leaf():
        return threading.get_ident()

    traced_leaf = recorder.wrap("leaf", leaf)

    def outer():
        context = contextvars.copy_context()
        result = []
        worker = threading.Thread(target=lambda: result.append(context.run(traced_leaf)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return result[0], traced_leaf()

    worker_thread, own_thread = recorder.wrap("outer", outer)()
    spans = recorder.as_dict()
    names = [spans["names"][i] for i in spans["name"]]
    assert names == ["outer", "leaf", "leaf"]
    assert spans["parent"] == [-1, 0, 0]
    assert spans["thread"][1:] == [worker_thread, own_thread]
    times = tracing.layer_times(spans)
    outer_total = spans["end"][0] - spans["start"][0]
    own_leaf = spans["end"][2] - spans["start"][2]
    assert times["outer"]["self_s"] == pytest.approx(outer_total - own_leaf)


# -- workload generation -------------------------------------------------------------


def test_identical_seed_gives_identical_inputs():
    for seed in (0, 7):
        assert workloads.transient_pass(seed) == workloads.transient_pass(seed)
        assert workloads.sweep_pass(seed) == workloads.sweep_pass(seed)
        assert workloads.hit_stream(seed, 500) == workloads.hit_stream(seed, 500)
        assert workloads.mixed_schedule(seed, 20) == workloads.mixed_schedule(seed, 20)
    assert workloads.mixed_schedule(0, 20) != workloads.mixed_schedule(1, 20)
    assert workloads.transient_pass(0) != workloads.transient_pass(1)


def test_schedule_is_whole_blocks_and_a_shorter_one_is_a_prefix():
    long = workloads.mixed_schedule(3, 30)
    assert len(long) == workloads.mixed_blocks(30) * len(workloads.MIXED_BLOCK)
    short = workloads.mixed_schedule(3, 10)
    assert len(short) % len(workloads.MIXED_BLOCK) == 0
    assert short == long[:len(short)]


def test_hit_stream_asks_for_waveforms_on_half_the_requests():
    stream = workloads.hit_stream(5, 400)
    assert sum(waveforms for _, waveforms in stream) == 200


def test_mixed_schedule_outcomes_are_known_in_advance():
    schedule = workloads.mixed_schedule(2, workloads.MAX_SECONDS)
    stored = {workloads.request_id(r) for r in workloads.working_set()}
    fresh = [workloads.request_id(s["request"]) for s in schedule if s["kind"] != "hit"]
    assert len(fresh) == len(set(fresh)), "a fresh spec repeats"
    assert not stored & set(fresh)
    assert all(workloads.request_id(s["request"]) in stored
               for s in schedule if s["kind"] == "hit")
    kinds = [s["kind"] for s in schedule[:25]]
    assert sorted(kinds) == sorted(workloads.MIXED_BLOCK)


# -- load generator ------------------------------------------------------------------


async def _fake_server(delay: float):
    """A loopback HTTP stub that records its peak concurrent connections."""
    state = {"open": 0, "peak": 0, "served": 0}

    async def handle(reader, writer):
        state["open"] += 1
        state["peak"] = max(state["peak"], state["open"])
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
        await reader.readexactly(length)
        await asyncio.sleep(delay)
        body = b'{"outcome": "miss", "peak_voltage": 0.5}'
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                     b"Content-Length: %d\r\nConnection: close\r\n\r\n" % len(body) + body)
        await writer.drain()
        writer.close()
        state["open"] -= 1
        state["served"] += 1

    server = await asyncio.start_server(handle, serve.HOST, 0)
    return server, server.sockets[0].getsockname()[1], state


def test_open_loop_never_exceeds_two_connections_and_pairs_do_not_deadlock():
    request = {"n_drivers": 1}
    schedule = [{"due": due, "kind": kind, "request": request} for due, kind in [
        (0.0, "pair"), (0.0, "pair"), (0.0, "miss"), (0.0, "pair"),
        (0.01, "miss"), (0.01, "miss"), (0.02, "pair")]]

    async def scenario():
        server, port, state = await _fake_server(0.02)
        async with server:
            results = await asyncio.wait_for(serve.open_loop(port, schedule), 10)
        return results, state

    results, state = asyncio.run(scenario())
    assert state["peak"] == 2
    assert state["served"] == sum(2 if s["kind"] == "pair" else 1 for s in schedule)
    assert [len(r["replies"]) for r in results] == [2, 2, 1, 2, 1, 1, 2]
    assert all(r["late_ms"] >= 0 for r in results)
    # Replies are timed from the due time, so queueing shows as latency.
    assert results[-1]["replies"][0]["ms"] >= results[-1]["late_ms"]


def test_pair_takes_both_connections_in_one_step():
    async def scenario():
        slots = serve.ConnectionSlots(2)
        await slots.acquire(1)
        pair = asyncio.create_task(slots.acquire(2))
        await asyncio.sleep(0.01)
        assert not pair.done() and slots.in_use == 1
        await slots.release(1)
        await asyncio.wait_for(pair, 1)
        assert slots.in_use == 2
        with pytest.raises(ValueError):
            await slots.acquire(3)

    asyncio.run(scenario())


# -- end to end ----------------------------------------------------------------------


def test_quick_run_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--quick", "--seed", "0"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["runs"] == 8
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    printed = {line.split()[0] for line in lines if line.startswith("  ")}
    for spec in bench["end_to_end"] + bench["per_layer"]:
        assert spec["name"] in printed, spec["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ssnbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/ssnbench/run.py", "--workload",
                           "serve_hit", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
