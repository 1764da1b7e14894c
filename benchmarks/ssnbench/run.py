"""ssnbench: the repository benchmark, end to end and layer by layer.

Run from the repository root (the source tree under ``src/`` is the
program under test; nothing is installed):

    python3 benchmarks/ssnbench/run.py --workload serve_hit --seed 0 --seconds 15 --trace 0

prints every metric with its unit, then, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Without ``--workload`` all four workloads run, and without
``--trace`` both runs of each; such a full run is appended to
``history.jsonl``.  ``--repeat K`` runs seeds N..N+K-1 and reports each
metric's median, IQR and range; ``--write-reference`` recomputes the
committed golden tables.  The exit code is 1 when any answer is wrong.
End-to-end times are scaled to one reference host speed (:mod:`hostspeed`).
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import serve
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE_DIR = HERE / "reference"
HISTORY = HERE / "history.jsonl"
REFERENCE_SEEDS = (0, 1)
#: A golden peak must match its reference to this, in volts.
PEAK_TOLERANCE_V = 1e-9
SETUP_SPAWNS = 3
#: Process-wide switches of the program that would change what is measured.
SCRUBBED_ENV = ("REPRO_ENGINE", "REPRO_SPARSE", "REPRO_MAX_WORKERS", "REPRO_FAULTS",
                "REPRO_NO_NUMBA", "REPRO_FLIGHT_DIR")


class BenchError(RuntimeError):
    """The benchmark itself could not complete a run."""


def child_env(**overrides) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    env.update(overrides)
    return env


def source_digest() -> str:
    """Identity of the program under test: a hash of ``src/repro``."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- statistics ----------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 for an empty sample)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest percentile with at least ten of ``n`` samples beyond it."""
    for p in candidates:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            return p
    return None


def tail_value(values) -> tuple[float, float | None]:
    """``values`` at their :func:`tail_percentile`, and that percentile.

    The value is 0 when there are too few values for any percentile.
    """
    p = tail_percentile(len(values))
    return (0.0 if p is None else quantile(values, p / 100.0)), p


def spread(values) -> dict:
    """Median, and IQR and max-min range as shares of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    scale = abs(median) or 1.0
    return {"median": median, "iqr": (q3 - q1) / scale,
            "range": (max(values) - min(values)) / scale}


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


# -- references ----------------------------------------------------------------------


def compute_references(entries: dict, log) -> dict:
    """Scalar-engine golden results in a child process (two pool workers)."""
    WORK.mkdir(exist_ok=True)
    request = WORK / f"ref-request-{os.getpid()}.json"
    answer = WORK / f"ref-answer-{os.getpid()}.json"
    request.write_text(json.dumps(entries))
    try:
        env = child_env(REPRO_MAX_WORKERS=str(min(2, os.cpu_count() or 1)))
        subprocess.run([sys.executable, str(HERE / "library.py"), "reference",
                        str(request), str(answer)],
                       env=env, stdout=log, stderr=log, timeout=900, check=True)
        return json.loads(answer.read_text())
    finally:
        request.unlink(missing_ok=True)
        answer.unlink(missing_ok=True)


def references(workload: str, seed: int, seconds: float, needed: set[str], log) -> dict:
    """Golden results for ``needed`` ids.

    The committed table of the seed comes first; anything else is a scalar
    recompute at this source tree, cached under ``.work`` by source
    digest so a seed is recomputed once per tree.
    """
    path = REFERENCE_DIR / f"seed{seed}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    cache_path = WORK / f"refs-{source_digest()}.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    missing = sorted(needed - table.keys() - cache.keys())
    if missing:
        entries = workloads.reference_entries(workload, seed, seconds)
        cache.update(compute_references({k: entries[k] for k in missing}, log))
        for old in WORK.glob("refs-*.json"):
            old.unlink()
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache))
        os.replace(tmp, cache_path)
    return {k: table[k] if k in table else cache[k] for k in needed}


def result_ok(reference, value) -> bool:
    if isinstance(reference, dict):
        return (isinstance(value, dict)
                and len(value["samples"]) == len(reference["samples"])
                and all(abs(a - b) <= PEAK_TOLERANCE_V
                        for a, b in zip(value["samples"], reference["samples"]))
                and abs(value["nominal"] - reference["nominal"]) <= PEAK_TOLERANCE_V)
    return isinstance(value, (int, float)) and abs(value - reference) <= PEAK_TOLERANCE_V


# -- running one workload ------------------------------------------------------------


@contextlib.contextmanager
def run_directory(workload: str, seed: int, trace: bool):
    """Scratch directory and child-process log of one run, removed after it."""
    run_dir = WORK / "runs" / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    log_path = run_dir / "children.log"
    try:
        with open(log_path, "w") as log:
            yield run_dir, log
    except Exception:
        tail = log_path.read_text()[-4000:] if log_path.exists() else ""
        sys.stderr.write(f"--- child-process log (tail) ---\n{tail}\n")
        raise
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def probe(workload: str, env: dict, log) -> tuple[float, float, float]:
    """One cold spawn of the set-up probe: (spawn time, ready time, import seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "library.py"), "probe", workload],
                            env=env, stdout=subprocess.PIPE, stderr=log, text=True,
                            preexec_fn=hostspeed.pin_measured)
    with proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=60) or not line:
            raise BenchError(f"set-up probe of {workload} failed")
    return start, ready, json.loads(line)["import_s"]


def ensure_fixture(log) -> Path:
    """The serve fixture store of this source tree and working set, built once."""
    working_set = "\n".join(map(workloads.request_id, workloads.working_set()))
    home = WORK / (f"fixture-{source_digest()}-"
                   f"{hashlib.sha256(working_set.encode()).hexdigest()[:8]}")
    if not (home / "complete").exists():
        WORK.mkdir(exist_ok=True)
        for old in WORK.glob("fixture-*"):
            shutil.rmtree(old)
        home.mkdir()
        subprocess.run([sys.executable, str(HERE / "serve.py"), "fixture",
                        str(home / "store")],
                       env=child_env(), stdout=log, stderr=log, timeout=600, check=True)
        (home / "complete").write_text("")
    return home / "store"


def run_library(workload, seed, seconds, trace, quick, run_dir, log) -> dict:
    env = child_env()
    setup = [probe(workload, env, log) for _ in range(SETUP_SPAWNS)]
    out = run_dir / "library.json"
    cmd = [sys.executable, str(HERE / "library.py"), "run", workload, str(seed),
           str(seconds), str(int(trace)), str(out)] + (["--quick"] if quick else [])
    subprocess.run(cmd, env=env, stdout=log, stderr=log, timeout=3 * seconds + 120,
                   check=True, preexec_fn=hostspeed.pin_measured)
    report = json.loads(out.read_text())
    return {"setup": setup, "report": report,
            "spans": tracing.load(report["spans"]) if trace else None}


def run_serve(workload, seed, seconds, trace, quick, run_dir, log) -> dict:
    env = child_env()
    fixture = ensure_fixture(log)
    store = run_dir / "store"
    shutil.copytree(fixture, store)
    raw = {"setup": [], "import": [], "phases": []}
    if not trace:
        servers = []
        try:
            for _ in range(SETUP_SPAWNS):
                if servers:
                    servers[-1].stop()
                servers.append(serve.ServerProcess(store, env, log))
                raw["setup"].append((servers[-1].spawned, *servers[-1].wait_ready()))
            raw["phases"].append(serve.serve_phase(workload, seed, seconds,
                                                   servers[-1], store, True))
            raw["rss_mb"] = servers[-1].rss_mb()
        finally:
            for server in servers:
                server.stop()
        return raw

    raw["import"] = [probe(workload, env, log)[2] for _ in range(SETUP_SPAWNS)]
    server = serve.ServerProcess(store, env, log)
    try:
        raw["setup"].append((server.spawned, *server.wait_ready()))
        raw["phases"].append(serve.serve_phase(workload, seed, seconds / 2, server,
                                               store, True))
    finally:
        server.stop()
    traced_store = run_dir / "store-traced"
    shutil.copytree(fixture, traced_store)
    spans = run_dir / "spans.json"
    server = serve.ServerProcess(traced_store, env, log, spans=spans)
    try:
        server.wait_ready()
        raw["phases"].append(serve.serve_phase(workload, seed, seconds / 2, server,
                                               traced_store, False))
    finally:
        code = server.stop()
    if code:
        raise BenchError(f"traced server exited {code}")
    raw["spans"] = tracing.load(spans)
    return raw


# -- metrics -------------------------------------------------------------------------


def _spice_counters(tel: dict, instances: int) -> dict:
    points = tel.get("accepted_steps", 0)
    return {
        "spice.newton_iterations_per_point": _per(tel.get("newton_iterations", 0), points),
        "spice.newton_solves_per_point": _per(tel.get("newton_solves", 0), points),
        "spice.restamps_per_point": _per(tel.get("nonlinear_restamps", 0), points),
        "spice.step_reject_ratio": _per(tel.get("step_rejections", 0),
                                        points + tel.get("step_rejections", 0)),
        "spice.lte_reject_ratio": _per(tel.get("lte_rejections", 0),
                                       points + tel.get("lte_rejections", 0)),
        "spice.mask_steps_per_point": _per(tel.get("mask_steps", 0), points),
        "spice.batch_fallback_ratio": _per(tel.get("batch_fallbacks", 0), instances),
    }


def _span_metrics(spans: dict, points: int) -> tuple[dict, dict]:
    """Simulator-stack span metrics per time point, and the raw layer table."""
    times = tracing.layer_times(spans)

    def self_ms(*names):
        return sum(times.get(n, {}).get("self_s", 0.0) for n in names) * 1e3

    return {
        "spice.transient_self_ms_per_point": _per(self_ms("spice.transient"), points),
        "spice.newton_self_ms_per_point": _per(self_ms("spice.newton_solve"), points),
        "spice.assembly_ms_per_point": _per(
            self_ms("spice.assemble_base", "spice.assemble_nonlinear"), points),
        "spice.batch_self_ms_per_point": _per(self_ms("spice.batch_transient"), points),
        "devices.partials_calls_per_point": _per(
            times.get("devices.partials", {}).get("count", 0), points),
        "devices.partials_ms_per_point": _per(self_ms("devices.partials"), points),
        "devices.bank_partials_ms_per_point": _per(self_ms("devices.bank_partials"),
                                                   points),
        "analysis.build_ms_per_point": _per(self_ms("analysis.build_driver_bank"), points),
    }, times


def _zero_serve_metrics() -> dict:
    names = ("analysis.campaign_ms_per_compute", "analysis.miss_p50_ms",
             "client.p50_ms", "client.tail_ms", "service.hit_p50_ms",
             "service.result_key_calls_per_request", "service.result_key_ms_per_request",
             "service.store_load_ms_per_hit", "service.store_hit_ratio",
             "service.store_put_ms_per_write", "service.computes_per_request",
             "service.dedup_ratio", "service.response_kb_mean",
             "service.unattributed_ms_per_request", "service.outcome_mismatch",
             "surrogate.p50_ms", "surrogate.max_err_pct",
             "surrogate.lookup_ms_per_query", "surrogate.answer_ms_per_hit",
             "surrogate.hit_ratio", "surrogate.refines_per_answer",
             "surrogate.audit_samples", "surrogate.demotions",
             "observability.events_per_request", "observability.journal_kb_per_request",
             "observability.emit_ms_per_request", "setup.warming_s", "client.late_tail_ms")
    return dict.fromkeys(names, 0.0)


def _percentile_name(p) -> str:
    return "none (0)" if p is None else f"p{p:g}"


def _op_ok(op: dict, refs: dict) -> bool:
    return "error" not in op and all(result_ok(refs[k], v)
                                     for k, v in op["results"].items())


def scaled(samples: list, start: float, end: float, value: float) -> float:
    """``value``, measured over ``[start, end]``, at the reference host speed."""
    return value * hostspeed.scale(samples, start, end)


def library_metrics(raw: dict, refs: dict, trace: bool) -> tuple[dict, int, int, str]:
    report, speed = raw["report"], raw["speed"]
    phases = report["phases"]
    ops = [op for phase in phases for op in phase["ops"]]
    failed = sum(not _op_ok(op, refs) for op in ops)
    base = phases[0]
    if not trace:
        # A mean over whole passes: the work per operation at the pass's
        # fixed mix of circuits.  Percentiles over the operations of a
        # pass would be the costs of particular circuits.
        metrics = {
            "setup_s": statistics.median(scaled(speed, start, ready, ready - start)
                                         for start, ready, _ in raw["setup"]),
            "peak_rss_mb": report["rss_mb"],
            "cpu_ms_per_op": scaled(speed, *base["window"],
                                    statistics.mean(op["cpu_ms"] for op in ops)),
        }
        return metrics, len(ops), failed, f"{len(base['pass_s'])} passes"

    traced = phases[1]
    metrics = _zero_serve_metrics()
    metrics.update(_spice_counters(base["telemetry"], base["instances"]))
    span_metrics, times = _span_metrics(raw["spans"], traced["telemetry"]["accepted_steps"])
    metrics.update(span_metrics)
    wall = sum(traced["pass_s"])
    metrics.update({
        "analysis.memo_hit_ratio": _per(base["memo_hits"],
                                        base["memo_hits"] + base["memo_misses"]),
        "analysis.retries": base["telemetry"].get("retries", 0),
        "analysis.degradations": base["telemetry"].get("degradations", 0),
        "setup.import_s": statistics.median(i for _, _, i in raw["setup"]),
        "bench.host_slowdown": 1.0 / hostspeed.scale(speed, -math.inf, math.inf),
        "bench.trace_overhead": scaled(speed, *traced["window"], sum(traced["pass_s"]))
        / scaled(speed, *base["window"], sum(base["pass_s"])) - 1.0,
        "bench.unattributed_ratio": _per(
            wall - sum(row["self_s"] for row in times.values()), wall),
    })
    return metrics, len(ops), failed, f"{len(base['pass_s'])} passes per half"


def _check_slot(slot: dict, refs: dict) -> tuple[int, list[float]]:
    """Failed replies of one serve slot, and its surrogate errors in percent."""
    replies = slot["replies"]
    outcomes = sorted(str(r.get("outcome")) for r in replies)
    if outcomes != slot["expected"]:
        return len(replies), []
    reference = refs[workloads.request_id(slot["request"])]
    failed, errors = 0, []
    for reply in replies:
        if ("error" in reply or reply["status"] != 200
                or not reply.get("waveforms_ok", True)):
            failed += 1
        elif reply["outcome"] == "surrogate":
            error = abs(reply["peak"] - reference) / abs(reference) * 100.0
            errors.append(error)
            failed += error > reply["tolerance"]
        else:
            failed += not result_ok(reference, reply["peak"])
    return failed, errors


def serve_metrics(raw: dict, refs: dict, trace: bool) -> tuple[dict, int, int, str]:
    phases = raw["phases"]
    attempted = failed = 0
    errors: list[float] = []
    for phase in phases:
        for slot in phase["slots"]:
            bad, errs = _check_slot(slot, refs)
            attempted += len(slot["replies"])
            failed += bad
            errors += errs
    base, speed = phases[0], raw["speed"]
    replies = [r for slot in base["slots"] for r in slot["replies"]]
    latency = [r["ms"] for r in replies]
    n = len(replies)
    if not trace:
        # Server CPU time, not latency: at 6 requests/s serve_mixed's server
        # is busy two thirds of the time, so its latencies queue and
        # spread by half their median from run to run even after scaling.
        metrics = {
            "setup_s": statistics.median(scaled(speed, spawned, ok, ok - spawned)
                                         for spawned, _, ok in raw["setup"]),
            "peak_rss_mb": raw["rss_mb"],
            "cpu_ms_per_op": scaled(speed, *base["window"], base["cpu_s"] * 1e3 / n),
        }
        return metrics, attempted, failed, f"{n} requests"

    m, journal = base["metrics"], base["journal"]
    client_tail, tail = tail_value(latency)
    late_tail, late = tail_value([s["late_ms"] for s in base["slots"]])

    def outcome_latency(outcome):
        return [r["ms"] for r in replies if r.get("outcome") == outcome]

    tel: dict[str, float] = {}
    for record in base["records"]:
        for key, value in record.items():
            if isinstance(value, (int, float)):
                tel[key] = tel.get(key, 0) + value
    surrogate_answers = len(outcome_latency("surrogate"))
    lookups = sum(serve.metric(m, f"repro_surrogate_{k}_total")
                  for k in ("hits", "misses", "refusals"))
    memo = sum(serve.metric(m, f"repro_ssn_memo_{k}_total") for k in ("hits", "misses"))
    store_reads = sum(serve.metric(m, f"repro_store_{k}_total") for k in ("hits", "misses"))
    metrics = _zero_serve_metrics()
    metrics.update(_spice_counters(tel, len(base["records"])))
    metrics.update({
        "analysis.memo_hit_ratio": _per(serve.metric(m, "repro_ssn_memo_hits_total"), memo),
        "analysis.retries": journal["names"].get("chunk_retry", 0),
        "analysis.degradations": journal["names"].get("chunk_degraded", 0)
        + journal["names"].get("pool_degraded", 0),
        "analysis.miss_p50_ms": quantile(outcome_latency("miss"), 0.5),
        "client.p50_ms": quantile(latency, 0.5),
        "client.tail_ms": client_tail,
        "service.hit_p50_ms": quantile(outcome_latency("hit"), 0.5),
        "service.store_hit_ratio": _per(serve.metric(m, "repro_store_hits_total"),
                                        store_reads),
        "service.computes_per_request": _per(
            serve.metric(m, "repro_service_computes_total"), n),
        "service.dedup_ratio": _per(len(outcome_latency("dedup")), n),
        "service.response_kb_mean": _per(sum(r["kb"] for r in replies), n),
        "service.outcome_mismatch": sum(
            sorted(str(r.get("outcome")) for r in slot["replies"]) != slot["expected"]
            for slot in base["slots"]),
        "surrogate.p50_ms": quantile(outcome_latency("surrogate"), 0.5),
        "surrogate.max_err_pct": max(errors, default=0.0),
        "surrogate.hit_ratio": _per(serve.metric(m, "repro_surrogate_hits_total"), lookups),
        "surrogate.refines_per_answer": _per(serve.metric(
            m, "repro_service_requests_total", endpoint="surrogate_refine"),
            surrogate_answers),
        "surrogate.audit_samples": serve.metric(m, "repro_surrogate_audit_samples_total"),
        "surrogate.demotions": serve.metric(m, "repro_surrogate_audit_demotions_total"),
        "observability.events_per_request": _per(journal["events"], n),
        "observability.journal_kb_per_request": _per(journal["bytes"] / 1024.0, n),
        "setup.import_s": statistics.median(raw["import"]),
        "setup.warming_s": raw["setup"][0][2] - raw["setup"][0][1],
        "bench.host_slowdown": 1.0 / hostspeed.scale(speed, -math.inf, math.inf),
        "client.late_tail_ms": late_tail,
    })

    traced = phases[1]
    t_replies = [r for slot in traced["slots"] for r in slot["replies"]]
    t_n = len(t_replies)
    points = sum(r.get("accepted_steps", 0) for r in traced["records"])
    span_metrics, times = _span_metrics(raw["spans"], points)
    metrics.update(span_metrics)

    def row(name):
        return times.get(name, {"count": 0, "self_s": 0.0})

    t_hits = sum(r.get("outcome") == "hit" for r in t_replies)
    mean_traced = _per(sum(r["ms"] for r in t_replies), t_n)
    # Requests are parsed, keyed and answered on the event-loop thread
    # (the one that hashes keys); computations run on worker threads.
    spans = raw["spans"]
    key_id = spans["names"].index("service.result_key")
    loop_thread = spans["thread"][spans["name"].index(key_id)]
    loop_self_ms = sum(r["self_s"] for r in
                       tracing.layer_times(spans, loop_thread).values()) * 1e3
    metrics.update({
        "analysis.campaign_ms_per_compute": _per(row("analysis.campaign")["self_s"] * 1e3,
                                                 len(traced["records"])),
        "service.result_key_calls_per_request": _per(row("service.result_key")["count"],
                                                     t_n),
        "service.result_key_ms_per_request": _per(
            row("service.result_key")["self_s"] * 1e3, t_n),
        "service.store_load_ms_per_hit": _per(row("service.store_load")["self_s"] * 1e3,
                                              t_hits),
        "service.store_put_ms_per_write": _per(row("service.store_put")["self_s"] * 1e3,
                                               row("service.store_put")["count"]),
        "service.unattributed_ms_per_request": mean_traced - _per(loop_self_ms, t_n),
        "surrogate.lookup_ms_per_query": _per(row("surrogate.lookup")["self_s"] * 1e3,
                                              row("surrogate.lookup")["count"]),
        "surrogate.answer_ms_per_hit": _per(row("surrogate.simulation")["self_s"] * 1e3,
                                            row("surrogate.simulation")["count"]),
        "observability.emit_ms_per_request": _per(
            row("observability.emit")["self_s"] * 1e3, t_n),
        "bench.trace_overhead": scaled(speed, *traced["window"], mean_traced)
        / scaled(speed, *base["window"], statistics.mean(latency)) - 1.0,
        "bench.unattributed_ratio": 0.0,
    })
    return metrics, attempted, failed, (
        f"untraced: {n} requests, client.tail_ms is {_percentile_name(tail)}; "
        f"{len(base['slots'])} slots, client.late_tail_ms is {_percentile_name(late)}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> tuple[dict, dict, str]:
    """One run: ``(result, every computed metric, what was measured)``."""
    library = workload in workloads.LIBRARY_WORKLOADS
    with run_directory(workload, seed, trace) as (run_dir, log):
        runner = run_library if library else run_serve
        probe = hostspeed.Probe(run_dir / "hostspeed.txt", log)
        try:
            raw = runner(workload, seed, seconds, trace, quick, run_dir, log)
        finally:
            speed = probe.stop()
        raw["speed"] = speed
        if library:
            needed = {k for phase in raw["report"]["phases"] for op in phase["ops"]
                      for k in op.get("results", {})}
        else:
            needed = {workloads.request_id(slot["request"])
                      for phase in raw["phases"] for slot in phase["slots"]}
        refs = references(workload, seed, seconds, needed, log)
    if library:
        metrics, attempted, failed, note = library_metrics(raw, refs, trace)
    else:
        metrics, attempted, failed, note = serve_metrics(raw, refs, trace)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed}
    return result, metrics, note


def declared(metrics: dict, specs: list[dict]) -> dict:
    """Exactly the declared metrics, with their units."""
    names = {spec["name"] for spec in specs}
    if set(metrics) != names:
        raise BenchError(f"computed metrics differ from BENCHMARK.json: "
                         f"missing {sorted(names - set(metrics))}, "
                         f"undeclared {sorted(set(metrics) - names)}")
    return {spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


# -- reporting -----------------------------------------------------------------------


def host_info() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=40"],
                capture_output=True, text=True, check=True).stdout.strip()
    return {
        "commit": commit, "source_digest": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def write_references() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in REFERENCE_SEEDS:
        entries = {}
        for workload in workloads.WORKLOADS:
            entries.update(workloads.reference_entries(workload, seed))
        values = compute_references(entries, sys.stderr)
        path = REFERENCE_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(values, sort_keys=True, indent=0) + "\n")
        print(f"wrote {len(values)} golden results to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="ssnbench: end-to-end and per-layer benchmark (see README.md)")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is for development, 1 the holdout")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of a run, as a fixed amount of work "
                        "(default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                        "(default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="one-second runs of truncated passes (smoke test)")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run seeds SEED..SEED+K-1 and report the spread")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the full report (host, runs, spreads) as JSON")
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference/seed0.json and seed1.json")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"ssnbench: no program under test at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_references()
        return 0
    bench = load_benchmark()
    seconds = args.seconds or (1.0 if args.quick else float(bench["run_seconds"]))
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    full = args.workload is None and args.trace is None and not args.quick
    host = host_info()
    runs = []
    for k in range(args.repeat):
        seed = args.seed + k
        batch = []
        for workload in names:
            for trace in traces:
                result, metrics, note = run_workload(workload, seed, seconds,
                                                     bool(trace), args.quick)
                result["metrics"] = declared(
                    metrics, bench["per_layer" if trace else "end_to_end"])
                print(f"{workload} seed={seed} trace={trace}: attempted "
                      f"{result['attempted']}, failed {result['failed']}; {note}")
                for name, value in result["metrics"].items():
                    print(f"  {name:42s} {value['value']:14.6g} {value['unit']}")
                batch.append({"workload": workload, "seed": seed, "trace": trace,
                              "result": result})
        runs += batch
        if full:
            with open(HISTORY, "a") as fh:
                fh.write(json.dumps({
                    "time": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                    "host": host, "seed": seed, "seconds": seconds, "runs": batch},
                    sort_keys=True) + "\n")

    spreads = {}
    if args.repeat > 1:
        groups: dict[tuple, list] = {}
        for run in runs:
            for name, value in run["result"]["metrics"].items():
                groups.setdefault((run["workload"], run["trace"], name), []).append(
                    value["value"])
        print(f"spread over {args.repeat} seeds: median, IQR/median, range/median")
        for (workload, trace, name), values in groups.items():
            s = spread(values)
            spreads[f"{workload}/{name}"] = s
            print(f"  {workload:16s} {name:42s} {s['median']:12.6g} "
                  f"{s['iqr']:8.2%} {s['range']:8.2%}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"host": host, "seconds": seconds, "runs": runs, "spreads": spreads},
            indent=1, sort_keys=True) + "\n")
    correct = all(run["result"]["correct"] for run in runs)
    if len(runs) == 1:
        print(json.dumps(runs[0]["result"]))
    else:
        print(json.dumps({
            "correct": correct,
            "attempted": sum(run["result"]["attempted"] for run in runs),
            "failed": sum(run["result"]["failed"] for run in runs),
            "runs": len(runs)}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, RuntimeError):
        traceback.print_exc()
        sys.exit(2)
