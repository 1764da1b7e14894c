"""Benchmark P1 — batched and surrogate engines vs their baselines.

Regression-tracked comparisons:

* the batched lockstep engine (one vectorized Newton loop for the whole
  ensemble) against the scalar engine it shares its numerics with, on a
  Fig. 3-class driver-count sweep;
* the adaptive batched lockstep engine against per-instance scalar
  adaptive runs on a Fig. 3-class ensemble (``adaptive_batch``); and
* the fitted surrogate tier against a cold scalar compute on
  in-region single-point queries, with the fitted peak error gated
  against the golden MNA and out-of-region queries refused by name
  (``surrogate_latency``).

Every speedup is gated on peak parity to 1e-9 V first.  The summaries
merge into ``BENCH_perf.json`` at the repo root, together with host
metadata (CPU count, numpy version, commit) so the perf trajectory stays
interpretable across machines.

The sweep strides N over 1..30 (the full Fig. 3 range) rather than
running every count, to keep the scalar half of the comparison inside a
CI-friendly budget (see ``bench_fig3`` for the dense sweep).

``pytest benchmarks/bench_perf.py --quick`` shrinks every workload to
smoke-test size and drops the timing assertions — CI uses it to catch
engine breakage without asserting wall-clock behavior on shared runners.
"""

import dataclasses
import os
import pathlib
import platform
import subprocess
import time

import numpy as np
import pytest

from repro.analysis.campaign import CampaignConfig, CampaignRunner
from repro.analysis.driver_bank import DriverBankSpec
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.observability import trace as obs_trace
from repro.process import TSMC018
from repro.analysis.simulate import (
    simulate_many,
    simulate_ssn,
    simulate_ssn_cache_clear,
)
from repro.spice.transient import TransientOptions

#: Required gain of the batched ensemble over the scalar engine.
MIN_BATCH_SPEEDUP = 3.0
#: Required gain of an in-region surrogate query over the scalar engine.
MIN_SURROGATE_SPEEDUP = 100.0
#: Worst in-region peak error the surrogate may show vs the golden MNA.
MAX_SURROGATE_ERROR_PERCENT = 3.0
#: Peak-voltage agreement between any two engines.
PARITY_TOL = 1e-9
#: Worst-case share of an untraced run the disabled instrumentation may
#: cost (the observability package's hot-path budget).
MAX_DISABLED_OVERHEAD = 0.03

SINGLE_N = 10
SWEEP_COUNTS = list(range(1, 31, 4))  # Fig. 3 range, strided for runtime

#: Adaptive ensemble: denser Fig. 3 stride than the fixed-step sweep —
#: the scalar baseline repeats the whole step-doubling controller per
#: instance, so a wider ensemble is what the batch path amortizes.
ADAPTIVE_COUNTS = list(range(1, 31, 2))

#: --quick smoke sizes: still exercises every engine, finishes in seconds.
QUICK_SINGLE_N = 3
QUICK_SWEEP_COUNTS = [1, 4]
QUICK_ADAPTIVE_COUNTS = [1, 4]

#: Timing repetitions for the batch comparison; the hosts this runs on
#: are shared and noisy, so each side reports its best of several runs.
TIMING_REPS = 3

def _host_metadata() -> dict:
    """Machine context stamped into ``BENCH_perf.json`` with every run.

    ``commit`` describes the working tree (``-dirty`` when it has
    uncommitted changes), so a ledger regenerated before committing does
    not name the parent commit as if it had produced the numbers.
    """
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=pathlib.Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def _spec(tech, n):
    return DriverBankSpec(
        technology=tech, n_drivers=n, inductance=5e-9, rise_time=0.2e-9
    )


def _best_of(wall_clock, name, fn, reps):
    """Record ``fn``'s best wall clock over ``reps`` runs; return last result."""
    best, result = None, None
    for _ in range(reps):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    wall_clock.timings[name] = best
    return result


@pytest.fixture(scope="module")
def tech018():
    return TSMC018


def test_batched_sweep_speedup(tech018, wall_clock, perf_report, publish, quick):
    counts = QUICK_SWEEP_COUNTS if quick else SWEEP_COUNTS
    base = _spec(tech018, 1)
    specs = [dataclasses.replace(base, n_drivers=n) for n in counts]

    def scalar_run():
        simulate_ssn_cache_clear()
        return [s.peak_voltage for s in simulate_many(specs, engine="scalar")]

    def batch_run():
        simulate_ssn_cache_clear()
        return [s.peak_voltage for s in simulate_many(specs, engine="batch")]

    # Warm both paths (model constant caches, lazy imports) before timing.
    scalar_run()
    batch_run()

    reps = 1 if quick else TIMING_REPS
    scalar_peaks = _best_of(wall_clock, "batched_sweep_scalar", scalar_run, reps)
    batch_peaks = _best_of(wall_clock, "batched_sweep_batch", batch_run, reps)
    for sp, bp in zip(scalar_peaks, batch_peaks):
        assert abs(bp - sp) <= PARITY_TOL

    speedup = wall_clock.speedup("batched_sweep_scalar", "batched_sweep_batch")
    if quick:
        return

    payload = {
        "host": _host_metadata(),
        "parity_tol_volts": PARITY_TOL,
        "batched_sweep": {
            "counts": counts,
            "scalar_seconds": wall_clock.timings["batched_sweep_scalar"],
            "batch_seconds": wall_clock.timings["batched_sweep_batch"],
            "speedup": speedup,
            "timing_reps": reps,
        },
    }
    perf_report(payload)

    publish(
        "bench_perf_batched",
        "batched ensemble engine vs scalar fast path\n\n"
        f"driver sweep (N={counts[0]}..{counts[-1]}): "
        f"scalar {wall_clock.timings['batched_sweep_scalar']:.2f}s -> "
        f"batch {wall_clock.timings['batched_sweep_batch']:.2f}s  "
        f"({speedup:.1f}x)\n",
    )

    assert speedup >= MIN_BATCH_SPEEDUP


def test_adaptive_batch_speedup(tech018, wall_clock, perf_report, publish, quick):
    """Adaptive batched lockstep vs per-instance scalar adaptive runs.

    Both sides run the same step-doubling controller over the same Fig. 3
    ensemble; the batch path phase-aligns the big/half/half solve triplet
    across instances while each keeps its own (t, h).  Peak parity to
    1e-9 V gates the comparison, and the batch results must prove the
    lockstep path actually ran (mask_steps > 0, zero fallbacks)."""
    counts = QUICK_ADAPTIVE_COUNTS if quick else ADAPTIVE_COUNTS
    base = _spec(tech018, 1)
    specs = [dataclasses.replace(base, n_drivers=n) for n in counts]
    adaptive = TransientOptions(adaptive=True)

    def scalar_run():
        simulate_ssn_cache_clear()
        return simulate_many(specs, options=adaptive, engine="scalar")

    def batch_run():
        simulate_ssn_cache_clear()
        return simulate_many(specs, options=adaptive, engine="batch")

    # Warm both paths (model constant caches, lazy imports) before timing.
    scalar_run()
    batch_run()

    reps = 1 if quick else TIMING_REPS
    scalar_res = _best_of(wall_clock, "adaptive_scalar", scalar_run, reps)
    batch_res = _best_of(wall_clock, "adaptive_batch", batch_run, reps)

    for s, b in zip(scalar_res, batch_res):
        assert abs(b.peak_voltage - s.peak_voltage) <= PARITY_TOL
        assert s.telemetry.accepted_steps == b.telemetry.accepted_steps
    assert all(b.telemetry.mask_steps > 0 for b in batch_res)
    assert all(b.telemetry.batch_fallbacks == 0 for b in batch_res)

    speedup = wall_clock.speedup("adaptive_scalar", "adaptive_batch")
    if quick:
        return

    payload = {
        "adaptive_batch": {
            "counts": counts,
            "scalar_seconds": wall_clock.timings["adaptive_scalar"],
            "batch_seconds": wall_clock.timings["adaptive_batch"],
            "speedup": speedup,
            "timing_reps": reps,
        },
    }
    perf_report(payload)

    publish(
        "bench_perf_adaptive",
        "adaptive batched lockstep vs scalar adaptive runs\n\n"
        f"driver ensemble (N={counts[0]}..{counts[-1]}, "
        f"{len(counts)} instances): "
        f"scalar {wall_clock.timings['adaptive_scalar']:.2f}s -> "
        f"batch {wall_clock.timings['adaptive_batch']:.2f}s  "
        f"({speedup:.1f}x)\n",
    )

    assert speedup >= MIN_BATCH_SPEEDUP


def test_surrogate_latency(tech018, wall_clock, perf_report, publish, quick):
    """Surrogate tier vs the scalar engine on single-point queries.

    The serving story's fast path: fit one surrogate over the stock box
    into a registry, then show (a) an in-region query answers >= 100x
    faster than a cold scalar simulation while staying within 3% of the
    golden MNA peak, and (b) an out-of-region query is refused with a
    reason naming the violated check, so a server falls through to the
    full engine.  The timed surrogate path is the registry's full serving
    cost (model lookup + validity checks + closed form), not just the
    formula evaluation.
    """
    from repro.surrogate import SurrogateRegistry, fit_surrogate

    box = dict(n_drivers=(2, 12), inductance=(2e-9, 8e-9),
               rise_time=(0.2e-9, 0.8e-9))
    samples = 2  # corners + center: 9 golden training sims
    model = fit_surrogate(tech018, samples_per_knob=samples, **box)
    assert model.error.max_abs_percent <= model.tolerance_percent

    probe = DriverBankSpec(technology=tech018, n_drivers=7,
                           inductance=4e-9, rise_time=0.5e-9)
    registry = SurrogateRegistry()
    registry.register(model)

    # -- in-region: surrogate answers, and tracks the golden peak --------
    hit, _ = registry.lookup(probe)
    assert hit is model
    sim = hit.simulation(probe)
    assert sim.telemetry.extras.get("surrogate_hits") == 1
    simulate_ssn_cache_clear()
    golden = simulate_ssn(probe)
    error_percent = 100.0 * abs(sim.peak_voltage - golden.peak_voltage) / (
        golden.peak_voltage)
    assert error_percent <= MAX_SURROGATE_ERROR_PERCENT

    # -- latency: registry serving cost vs one cold scalar compute -------
    def scalar_once():
        simulate_ssn_cache_clear()
        return simulate_ssn(probe).peak_voltage

    scalar_once()  # warm model caches and lazy imports before timing
    reps = 1 if quick else TIMING_REPS
    _best_of(wall_clock, "surrogate_scalar", scalar_once, reps)

    queries = 10 if quick else 1000

    def answer_loop():
        answer = None
        for _ in range(queries):
            found, _ = registry.lookup(probe)
            answer = found.answer(probe)
        return answer

    assert answer_loop() is not None
    _best_of(wall_clock, "surrogate_answer_loop", answer_loop, reps)
    wall_clock.timings["surrogate_query"] = (
        wall_clock.timings["surrogate_answer_loop"] / queries)
    speedup = wall_clock.speedup("surrogate_scalar", "surrogate_query")

    # -- out-of-region: refused, naming the violated check ---------------
    outside = dataclasses.replace(probe, n_drivers=40)
    refused, reason = registry.lookup(outside)
    assert refused is None and reason is not None
    refusal = reason.split(":", 1)[0]
    assert refusal == "validity-box"

    if quick:
        return

    payload = {
        "surrogate_latency": {
            "box": model.region.as_payload(),
            "probe": {"n_drivers": probe.n_drivers,
                      "inductance": probe.inductance,
                      "rise_time": probe.rise_time},
            "training_points": model.n_training,
            "fitted_max_error_percent": model.error.max_abs_percent,
            "probe_error_percent": error_percent,
            "scalar_seconds": wall_clock.timings["surrogate_scalar"],
            "query_seconds": wall_clock.timings["surrogate_query"],
            "queries_per_rep": queries,
            "speedup": speedup,
            "min_speedup": MIN_SURROGATE_SPEEDUP,
            "max_error_percent": MAX_SURROGATE_ERROR_PERCENT,
            "out_of_region_refusal": refusal,
            "timing_reps": reps,
        },
    }
    perf_report(payload)

    publish(
        "bench_perf_surrogate",
        "surrogate tier vs scalar fast path on single-point queries\n\n"
        f"in-region probe (N={probe.n_drivers}): scalar "
        f"{wall_clock.timings['surrogate_scalar'] * 1e3:.1f} ms -> surrogate "
        f"{wall_clock.timings['surrogate_query'] * 1e6:.1f} us per query "
        f"({speedup:.0f}x), peak error {error_percent:.2f}% "
        f"(bound {model.error.max_abs_percent:.2f}%)\n"
        f"out-of-region probe: refused ({refusal})\n",
    )

    assert speedup >= MIN_SURROGATE_SPEEDUP
    assert error_percent <= MAX_SURROGATE_ERROR_PERCENT


def test_tracing_overhead(tech018, wall_clock, perf_report, publish, quick):
    """Observability must be free when off and cheap when on.

    Three measurements on one golden transient:

    * the untraced wall clock (instrumentation present but disabled — the
      shape every production run has);
    * the same workload under full-detail tracing + metrics, with peak
      parity asserted (reported, not gated: enabled tracing buys data
      with time);
    * the disabled no-op primitives micro-timed, then scaled by the span
      count the traced run proved is on the hot path.  That bounds the
      instrumentation's share of the untraced run without needing an
      uninstrumented build to diff against, and the bound is a ratio of
      back-to-back timings on one host, so shared-runner noise largely
      cancels — it is asserted even in ``--quick`` mode.
    """
    single_n = QUICK_SINGLE_N if quick else SINGLE_N

    def run():
        simulate_ssn_cache_clear()
        return simulate_ssn(_spec(tech018, single_n)).peak_voltage

    run()  # warm model caches and lazy imports before timing

    reps = 1 if quick else TIMING_REPS
    peak_off = _best_of(wall_clock, "tracing_off", run, reps)

    tracer = obs_trace.enable_tracing(detail="full")
    obs_metrics.enable_metrics()
    try:
        peak_on = _best_of(wall_clock, "tracing_on", run, reps)
    finally:
        obs_trace.disable_tracing()
        obs_metrics.disable_metrics()
    assert abs(peak_on - peak_off) <= PARITY_TOL
    assert tracer.spans, "full-detail tracing recorded no spans"

    # Disabled-path cost per instrumented site: one span() call (returns
    # the shared no-op span after a single global read) plus one metric
    # observation (a no-op after the same read).
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        obs_trace.span("newton_solve", level="newton", mode="tran", t=0.0)
        obs_metrics.observe("repro_newton_iterations_per_solve", 3)
    per_site = (time.perf_counter() - start) / calls
    # Sites that still execute with tracing disabled: everything except
    # the per-iteration assembly/LU spans, which sit behind the hoisted
    # wants("full") gate and cost one bool check when off.  2x that count
    # is a safety margin (every span site pairs with at most one metric
    # observation).
    hot_sites = sum(
        1 for sp in tracer.spans if sp.name not in ("assembly", "lu_solve")
    )
    disabled_fraction = (
        2 * hot_sites * per_site / wall_clock.timings["tracing_off"]
    )
    enabled_fraction = wall_clock.speedup("tracing_on", "tracing_off") - 1.0

    assert disabled_fraction < MAX_DISABLED_OVERHEAD

    if quick:
        return

    payload = {
        "tracing_overhead": {
            "n_drivers": single_n,
            "untraced_seconds": wall_clock.timings["tracing_off"],
            "traced_seconds": wall_clock.timings["tracing_on"],
            "traced_spans": len(tracer.spans),
            "disabled_hot_sites": hot_sites,
            "noop_site_seconds": per_site,
            "disabled_overhead_fraction": disabled_fraction,
            "enabled_overhead_fraction": enabled_fraction,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "timing_reps": reps,
        },
    }
    perf_report(payload)

    publish(
        "bench_perf_tracing",
        "observability overhead on one golden transient "
        f"(N={single_n})\n\n"
        f"untraced {wall_clock.timings['tracing_off']:.2f}s -> full-detail "
        f"traced {wall_clock.timings['tracing_on']:.2f}s "
        f"({100 * enabled_fraction:+.1f}%, {len(tracer.spans)} spans)\n"
        f"disabled-instrumentation bound: {100 * disabled_fraction:.2f}% "
        f"of the untraced run (budget {100 * MAX_DISABLED_OVERHEAD:.0f}%)\n",
    )


def test_events_overhead(tech018, wall_clock, perf_report, publish, quick,
                         tmp_path):
    """The event journal must be free when off and cheap when on.

    Three measurements on one checkpointed campaign — the workload that
    crosses the most journal sites per run (chunk lifecycle, checkpoint
    publication, pool adoption):

    * the journal-off wall clock (emit sites present but disabled — the
      shape every direct run has);
    * the same campaign with a durable file-backed journal enabled, with
      peak parity asserted; the recorded event count is the *proof* of
      how many emit sites the run actually crosses;
    * the disabled :func:`~repro.observability.events.emit` no-op
      micro-timed, then scaled by the proven site count.  That bounds the
      disabled journal's share of the run as a ratio of back-to-back
      timings on one host (shared-runner noise largely cancels), so it is
      asserted even in ``--quick`` mode.
    """
    counts = QUICK_SWEEP_COUNTS if quick else SWEEP_COUNTS
    reps = 1 if quick else TIMING_REPS
    ckpt = tmp_path / "campaign.jsonl"
    base = _spec(tech018, 1)
    specs = [dataclasses.replace(base, n_drivers=n) for n in counts]

    def run():
        simulate_ssn_cache_clear()
        if ckpt.exists():
            ckpt.unlink()
        runner = CampaignRunner(CampaignConfig(
            chunk_size=2, max_workers=1, engine="scalar",
            backoff_base=0.0, checkpoint=ckpt))
        return [s.peak_voltage for s in runner.run_simulate(specs)]

    run()  # warm model caches and lazy imports before timing

    peaks_off = _best_of(wall_clock, "events_off", run, reps)

    journal = obs_events.enable_events(tmp_path / "events.jsonl")
    try:
        peaks_on = _best_of(wall_clock, "events_on", run, reps)
        recorded = journal.recorded
    finally:
        obs_events.disable_events()
    assert max(abs(a - b) for a, b in zip(peaks_on, peaks_off)) <= PARITY_TOL
    assert recorded > 0, "journaled campaign recorded no events"
    # The journal accumulated across every timing rep; each rep crosses
    # the same deterministic site sequence.
    hot_sites = max(1, recorded // reps)

    # Disabled-path cost per site: one emit() call — a module-global read
    # and a None check after Python packs the keyword attributes.
    calls = 200_000
    start = time.perf_counter()
    for _ in range(calls):
        obs_events.emit("chunk_retry", chunk=0, attempt=1)
    per_site = (time.perf_counter() - start) / calls
    # 2x the proven count is a safety margin for sites a clean run skips
    # (retries, degradations, quarantines, flight recording).
    disabled_fraction = (
        2 * hot_sites * per_site / wall_clock.timings["events_off"]
    )
    enabled_fraction = wall_clock.speedup("events_on", "events_off") - 1.0

    assert disabled_fraction < MAX_DISABLED_OVERHEAD

    if quick:
        return

    payload = {
        "events_overhead": {
            "sweep_counts": counts,
            "journal_off_seconds": wall_clock.timings["events_off"],
            "journal_on_seconds": wall_clock.timings["events_on"],
            "events_per_run": hot_sites,
            "noop_emit_seconds": per_site,
            "disabled_overhead_fraction": disabled_fraction,
            "enabled_overhead_fraction": enabled_fraction,
            "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
            "timing_reps": reps,
        },
    }
    perf_report(payload)

    publish(
        "bench_perf_events",
        "event-journal overhead on one checkpointed campaign "
        f"({len(counts)} specs)\n\n"
        f"journal off {wall_clock.timings['events_off']:.2f}s -> durable "
        f"journal on {wall_clock.timings['events_on']:.2f}s "
        f"({100 * enabled_fraction:+.1f}%, {hot_sites} events/run)\n"
        f"disabled-journal bound: {100 * disabled_fraction:.2f}% of the "
        f"journal-off run (budget {100 * MAX_DISABLED_OVERHEAD:.0f}%)\n",
    )
