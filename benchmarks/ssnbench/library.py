"""Child process of the library workloads, the set-up probe and the references.

    library.py run WORKLOAD SEED SECONDS TRACE OUT [--quick]
    library.py probe WORKLOAD
    library.py reference ENTRIES.json OUT.json

``run`` repeats the workload's seeded pass a fixed number of times
(:func:`workloads.library_passes` of ``SECONDS``) and writes every
operation's latency, CPU time and golden results, the summed solver
telemetry and peak RSS to ``OUT``.  With ``TRACE`` = 1 the work is split:
half the seconds untraced (counters and the baseline for the trace
overhead), then half with the layer wrappers of :mod:`tracing` installed,
whose spans go to ``OUT.spans.json``.

``probe`` imports the workload's entry modules in a fresh interpreter and
prints one JSON line with the import time: the harness times spawn to that
line as the set-up time.

``reference`` computes golden results with the scalar engine (the
reference every run is checked against) for a JSON map of entries.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

import workloads
from workloads import request_id

ENTRY_MODULES = {
    "transient_scalar": ("repro.analysis.simulate", "repro.process"),
    "sweep_batch": ("repro.analysis.simulate", "repro.analysis.montecarlo",
                    "repro.process"),
    "serve_hit": ("repro.cli", "repro.service.server"),
    "serve_mixed": ("repro.cli", "repro.service.server"),
}


def vm_hwm_mb(pid: str = "self") -> float:
    """Peak resident set size of a process, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def build(request: dict):
    """``(DriverBankSpec, TransientOptions | None)`` of one request."""
    from repro.analysis.driver_bank import DriverBankSpec
    from repro.process import get_technology
    from repro.spice.transient import TransientOptions

    fields = {k: v for k, v in request.items() if k != "options"}
    if "input_offsets" in fields:
        fields["input_offsets"] = tuple(fields["input_offsets"])
    spec = DriverBankSpec(technology=get_technology(workloads.TECH), **fields)
    options = request.get("options")
    return spec, None if options is None else TransientOptions(**options)


class _Phase:
    """Everything one timed phase produced."""

    def __init__(self):
        from repro.spice.telemetry import SolverTelemetry

        self.ops: list[dict] = []
        self.pass_s: list[float] = []
        self.telemetry = SolverTelemetry()
        self.memo_hits = self.memo_misses = self.instances = 0

    def as_dict(self) -> dict:
        return {"ops": self.ops, "pass_s": self.pass_s,
                "telemetry": self.telemetry.as_dict(),
                "memo_hits": self.memo_hits, "memo_misses": self.memo_misses,
                "instances": self.instances}


def _run_transient(request: dict, phase: _Phase) -> dict:
    from repro.analysis import simulate

    spec, options = build(request)
    op = {"id": request_id(request)}
    start = time.perf_counter()
    try:
        # Looked up on the module, so a traced run's wrapper applies.
        sim = simulate.simulate_ssn(spec, options=options)
    except Exception as exc:  # counted as a failed operation
        op.update(ms=(time.perf_counter() - start) * 1e3, error=repr(exc))
        return op
    op["ms"] = (time.perf_counter() - start) * 1e3
    op["results"] = {op["id"]: sim.peak_voltage}
    phase.telemetry.merge(sim.telemetry)
    phase.instances += 1
    return op


def _run_ensemble(ensemble: dict, phase: _Phase) -> dict:
    from repro.analysis import montecarlo, simulate

    # Untimed: without it a repeated pass would answer singleton groups
    # and the Monte Carlo nominal from the memo.
    simulate.simulate_ssn_cache_clear()
    op = {"id": ensemble["label"]}
    start = time.perf_counter()
    try:
        if ensemble["kind"] == "montecarlo":
            spec, _ = build(ensemble["request"])
            result = montecarlo.transient_peak_distribution(
                spec, trials=ensemble["trials"], seed=ensemble["seed"],
                engine="batch")
            elapsed = time.perf_counter() - start
            key = request_id(workloads.montecarlo_entry(ensemble))
            results = {key: {"samples": result.samples.tolist(),
                             "nominal": result.nominal}}
            telemetry, instances = [result.telemetry], ensemble["trials"]
        else:
            built = [build(r) for r in ensemble["requests"]]
            sims = simulate.simulate_many([s for s, _ in built], engine="batch",
                                          options=built[0][1])
            elapsed = time.perf_counter() - start
            results = {request_id(r): sim.peak_voltage
                       for r, sim in zip(ensemble["requests"], sims)}
            telemetry, instances = [sim.telemetry for sim in sims], len(sims)
    except Exception as exc:  # counted as a failed operation
        op.update(ms=(time.perf_counter() - start) * 1e3, error=repr(exc))
        return op
    op.update(ms=elapsed * 1e3, results=results)
    for record in telemetry:
        phase.telemetry.merge(record)
    stats = simulate.simulate_ssn_cache_stats()
    phase.memo_hits += stats["hits"]
    phase.memo_misses += stats["misses"]
    phase.instances += instances
    return op


def _timed_phase(ops, execute, passes: int) -> dict:
    phase = _Phase()
    begin = time.perf_counter()
    for _ in range(passes):
        start = time.perf_counter()
        for op in ops:
            cpu = time.process_time()
            record = execute(op, phase)
            record["cpu_ms"] = (time.process_time() - cpu) * 1e3
            phase.ops.append(record)
        phase.pass_s.append(time.perf_counter() - start)
    return dict(phase.as_dict(), window=[begin, time.perf_counter()])


def run(workload: str, seed: int, seconds: float, trace: bool, out: str,
        quick: bool) -> None:
    if workload == "transient_scalar":
        ops, execute = workloads.transient_pass(seed), _run_transient
    else:
        ops, execute = workloads.sweep_pass(seed), _run_ensemble
    if quick:
        ops = ops[:2]
    execute(ops[0], _Phase())  # warm-up: lazy imports and first-call set-up
    passes = 1 if quick else workloads.library_passes(seconds / 2 if trace else seconds)
    phases = [_timed_phase(ops, execute, passes)]
    report = {"phases": phases, "rss_mb": vm_hwm_mb()}
    if trace:
        import tracing

        recorder = tracing.SpanRecorder()
        restore = tracing.install(recorder, tracing.library_targets())
        try:
            phases.append(_timed_phase(ops, execute, passes))
        finally:
            restore()
        report["spans"] = out + ".spans.json"
        recorder.dump(report["spans"])
    with open(out, "w") as fh:
        json.dump(report, fh)


def probe(workload: str) -> None:
    start = time.perf_counter()
    for module in ENTRY_MODULES[workload]:
        importlib.import_module(module)
    import_s = time.perf_counter() - start
    from repro.process import get_technology

    get_technology(workloads.TECH)
    print(json.dumps({"import_s": import_s}), flush=True)


def reference(entries_path: str, out: str) -> None:
    """Scalar-engine golden results for every entry (pool width from env)."""
    from repro.analysis.montecarlo import transient_peak_distribution
    from repro.analysis.simulate import simulate_many

    with open(entries_path) as fh:
        entries = json.load(fh)
    results = {}
    by_options: dict[str, list[str]] = {}
    for key, entry in entries.items():
        if "montecarlo" in entry:
            spec, _ = build(entry["montecarlo"])
            mc = transient_peak_distribution(spec, trials=entry["trials"],
                                             seed=entry["seed"], engine="scalar")
            results[key] = {"samples": mc.samples.tolist(), "nominal": mc.nominal}
        else:
            by_options.setdefault(json.dumps(entry.get("options")), []).append(key)
    for keys in by_options.values():
        built = [build(entries[key]) for key in keys]
        sims = simulate_many([s for s, _ in built], engine="scalar",
                             options=built[0][1])
        results.update({key: sim.peak_voltage for key, sim in zip(keys, sims)})
    with open(out, "w") as fh:
        json.dump(results, fh)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("workload", choices=workloads.LIBRARY_WORKLOADS)
    p_run.add_argument("seed", type=int)
    p_run.add_argument("seconds", type=float)
    p_run.add_argument("trace", type=int, choices=(0, 1))
    p_run.add_argument("out")
    p_run.add_argument("--quick", action="store_true")
    p_probe = sub.add_parser("probe")
    p_probe.add_argument("workload", choices=workloads.WORKLOADS)
    p_ref = sub.add_parser("reference")
    p_ref.add_argument("entries")
    p_ref.add_argument("out")
    args = parser.parse_args(argv)
    if args.mode == "run":
        run(args.workload, args.seed, args.seconds, bool(args.trace), args.out,
            args.quick)
    elif args.mode == "probe":
        probe(args.workload)
    else:
        reference(args.entries, args.out)


if __name__ == "__main__":
    sys.exit(main())
