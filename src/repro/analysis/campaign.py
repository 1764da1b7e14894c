"""Fault-tolerant campaign runner: journaled chunks, retries, degradation.

The paper's headline results (the Fig. 3 driver-count sweeps, the Table 1
comparisons) and the golden Monte Carlo extensions are long multi-instance
campaigns; PVT-corner characterization in practice means thousands of such
runs.  Before this module, one crashed worker, one poison parameter point
or one Ctrl-C lost the whole sweep.  :class:`CampaignRunner` executes any
sweep / ``simulate_many`` / ``transient_peak_distribution`` workload as a
sequence of *chunks* with four guarantees:

1. **Atomic checkpointing** — after every completed chunk the whole
   journal (header plus one JSON line per finished chunk) is rewritten to
   a temp file in the checkpoint's directory, fsynced, and committed with
   ``os.replace``.  A crash at any instant leaves either the previous
   valid journal or the new valid journal on disk, never a torn file.
2. **Exact resume** — ``resume=True`` replays the journal (validating a
   fingerprint of the workload so a stale journal cannot silently corrupt
   a different campaign) and re-executes only the missing chunks.  Results
   are **bit-identical** to an uninterrupted run: journaled floats are
   serialized by :mod:`json` with ``repr`` round-trip fidelity, and fresh
   chunks execute the same deterministic code path.
3. **Retry with backoff and a deadline** — a failing chunk is re-attempted
   up to ``max_retries`` times with capped exponential backoff; each task
   additionally carries an optional wall-clock ``deadline`` after which
   its attempt is treated as failed (:class:`DeadlineExceeded`).
4. **Graceful engine degradation** — when a chunk exhausts its bulk retry
   budget, each of its instances is recovered independently on the
   scalar engine, which owns the step-halving recovery ladder (one
   ``degradations`` tick each when the chunk ran on the batch engine).
   Every recovery action is counted in
   :class:`~repro.spice.telemetry.SolverTelemetry` (``retries``,
   ``degradations``, ``chunks_failed``, ``checkpoint_writes``), so
   harnesses assert exact recovery behavior instead of mere survival.

A killed pool worker is an ordinary chunk-attempt failure: the broken
pool's error, which :func:`repro.analysis.parallel.parallel_map`
propagates unchanged, fails the bulk attempt.  That counts in
``retries`` and, once the chunk's budget is spent, in ``chunks_failed``
before its instances recover in-process.

Every failure path here is exercised by tests through the deterministic
fault injector (:mod:`repro.testing.faults`) rather than trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import time
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..observability import events as obs_events
from ..observability import health as obs_health
from ..observability import metrics as obs_metrics
from ..observability import trace
from ..observability.atomic import atomic_write
from ..spice.telemetry import SolverTelemetry, record_session
from ..spice.transient import TransientOptions
from ..testing import faults
from .driver_bank import DriverBankSpec
from .engine import resolve_engine
from .parallel import parallel_map
from .simulate import SsnSimulation, simulate_on, simulate_ssn_cached

#: Journal schema version (bumped on incompatible format changes).
CHECKPOINT_VERSION = 1

class CampaignError(RuntimeError):
    """A campaign instance failed every rung of the recovery ladder.

    The failing run's campaign :class:`~repro.spice.telemetry.SolverTelemetry`
    (with ``unrecovered_failures`` incremented) is attached as ``.telemetry``.
    """

    telemetry: SolverTelemetry | None = None


class CheckpointMismatchError(CampaignError):
    """The checkpoint on disk was written by a *different* workload.

    Resuming a sweep from another sweep's journal would silently splice
    wrong numbers into the result, so the fingerprint (workload kind,
    item count, chunk size, parameter digest) must match exactly.
    """


class DeadlineExceeded(CampaignError):
    """One task's wall-clock attempt exceeded the configured deadline."""


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Knobs of one campaign execution.

    Attributes:
        checkpoint: journal path (JSONL); None disables checkpointing.
        resume: replay an existing journal and run only missing chunks.
            Without an existing journal this is a normal fresh run.
        chunk_size: instances per journaled chunk (the checkpoint
            granularity; part of the resume fingerprint).
        max_retries: re-attempts per chunk (and per instance per rung)
            after the first failure.
        deadline: per-task wall-clock budget in seconds (None = unlimited).
        backoff_base: first retry backoff in seconds; attempt ``k`` sleeps
            ``min(backoff_cap, backoff_base * 2**k)``.  0 disables sleeping
            (the test suite's setting).
        backoff_cap: upper bound on one backoff sleep.
        max_workers: process-pool width for scalar bulk execution (as in
            :func:`repro.analysis.parallel.parallel_map`).
        engine: starting engine rung (``"batch"``/``"scalar"``/``"auto"``;
            None runs ``"scalar"``, see
            :func:`repro.analysis.engine.resolve_engine`).
        flight_dir: directory for a flight-recorder bundle (last events +
            spans + metrics) dumped when an instance exhausts the whole
            recovery ladder (default: ``$REPRO_FLIGHT_DIR``, else none).
    """

    checkpoint: str | os.PathLike | None = None
    resume: bool = False
    chunk_size: int = 8
    max_retries: int = 2
    deadline: float | None = None
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    max_workers: int | None = None
    engine: str | None = None
    flight_dir: str | os.PathLike | None = None

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.deadline is not None and not (
                math.isfinite(self.deadline) and self.deadline > 0):
            raise ValueError("deadline must be finite and positive when given")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff times must be non-negative")
        if self.max_workers is not None and self.max_workers < 0:
            raise ValueError("max_workers must be non-negative")


@dataclasses.dataclass(frozen=True)
class SimulationSummary:
    """Journal-backed summary of one golden simulation in a campaign.

    Campaign journals store JSON-serializable summaries (peaks, times,
    telemetry counters), not full waveforms; callers needing waveforms
    re-simulate the few configurations of interest via
    :func:`repro.analysis.simulate.simulate_ssn_cached`.
    """

    index: int
    spec: DriverBankSpec
    peak_voltage: float
    peak_time: float
    engine: str
    telemetry: SolverTelemetry | None = None


# -- picklable instance worker -------------------------------------------------------


def _record_from(index: int, sim: SsnSimulation, rung: str) -> dict:
    return {
        "index": int(index),
        "peak": float(sim.peak_voltage),
        "peak_time": float(sim.peak_time),
        "engine": rung,
        "telemetry": None if sim.telemetry is None else sim.telemetry.as_dict(),
    }


def _record_telemetry(rec: dict) -> SolverTelemetry | None:
    """The solver counters a journal record carries, if any."""
    return SolverTelemetry.from_dict(rec["telemetry"]) if rec.get("telemetry") else None


def _instance_record(payload: tuple) -> dict:
    """Simulate one instance and summarize it (module-level: picklable).

    Publishes ``task``/``engine`` fault scope, runs the ``worker`` probe
    (the injector kills a pool worker here) and the ``task`` probe (its
    stall fault sleeps here), and enforces the per-task deadline on the
    attempt's wall clock.
    """
    index, spec, rung, deadline, options = payload
    with faults.scope(task=index, engine=rung):
        faults.probe("worker")
        start = time.perf_counter()
        with trace.span("task", index=index, engine=rung):
            faults.probe("task")
            sim = simulate_ssn_cached(spec, options=options)
        elapsed = time.perf_counter() - start
    if deadline is not None and elapsed > deadline:
        raise DeadlineExceeded(
            f"task {index} took {elapsed:.3f} s against a {deadline:.3f} s deadline"
        )
    return _record_from(index, sim, rung)


# -- the runner ----------------------------------------------------------------------


class CampaignRunner:
    """Executes spec ensembles as journaled, retried, degradable chunks.

    One runner instance accumulates campaign telemetry across its runs in
    ``self.telemetry`` (campaign counters only — per-instance solver
    counters ride on the returned results, exactly as in direct sweeps, so
    nothing is double counted when callers aggregate both).  Each
    :meth:`run_specs` call records only its own counters into the session.
    """

    def __init__(self, config: CampaignConfig | None = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError("pass either a CampaignConfig or keyword knobs, not both")
        self.config = config if config is not None else CampaignConfig(**kwargs)
        self.telemetry = SolverTelemetry()

    # -- checkpoint I/O --------------------------------------------------------------

    @staticmethod
    def _fingerprint(kind: str, n_items: int, chunk_size: int, extra: dict) -> str:
        payload = json.dumps(
            {"kind": kind, "n_items": n_items, "chunk_size": chunk_size, **extra},
            sort_keys=True, default=repr,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _write_journal(self, path: Path, header: dict, done: dict[int, dict]) -> None:
        """Atomically replace the journal with header + completed chunks.

        Publication goes through the shared
        :func:`repro.observability.atomic.atomic_write` helper (tempfile in
        the journal's directory, fsync, ``os.replace``); the line generator
        runs the ``checkpoint`` fault probe after the header chunk, so the
        injector's ``crash-write`` fault still fires after the header lands
        in the temp file and leaves the previous journal untouched.
        """

        def lines() -> Iterator[str]:
            yield json.dumps(header, sort_keys=True) + "\n"
            faults.probe("checkpoint")
            for ci in sorted(done):
                yield json.dumps(done[ci], sort_keys=True) + "\n"

        start = time.perf_counter()
        with trace.span("checkpoint_write", chunks=len(done)) as sp:
            atomic_write(path, lines())
        self.telemetry.checkpoint_writes += 1
        obs_metrics.observe("repro_checkpoint_write_seconds",
                            trace.elapsed(sp, start))
        obs_events.emit("checkpoint_write", path=str(path), chunks=len(done))

    def _load_journal(self, path: Path, header: dict) -> dict[int, dict]:
        """Replay a journal, validating it belongs to this exact workload."""
        done: dict[int, dict] = {}
        if not path.exists():
            return done
        with open(path) as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
        if not lines:
            return done
        on_disk = json.loads(lines[0])
        for key in ("version", "kind", "n_items", "chunk_size", "fingerprint"):
            if on_disk.get(key) != header[key]:
                raise CheckpointMismatchError(
                    f"checkpoint {path} was written by a different campaign "
                    f"({key}: journal {on_disk.get(key)!r} vs workload {header[key]!r}); "
                    "delete it or point --checkpoint elsewhere"
                )
        for line in lines[1:]:
            entry = json.loads(line)
            done[int(entry["chunk"])] = entry
            # Restored chunks contribute their saved recovery counters, so
            # resumed telemetry reports the whole campaign's history.
            self.telemetry.merge(SolverTelemetry.from_dict(entry.get("campaign", {})))
        return done

    # -- execution -------------------------------------------------------------------

    def _sleep_backoff(self, attempt: int) -> None:
        cfg = self.config
        if cfg.backoff_base > 0:
            time.sleep(min(cfg.backoff_cap, cfg.backoff_base * (2.0 ** attempt)))

    def _bulk(self, indices: Sequence[int], specs: Sequence[DriverBankSpec],
              rung: str, options: TransientOptions | None = None) -> list[dict]:
        """One whole-chunk execution attempt at one engine rung."""
        faults.probe("engine")
        cfg = self.config
        if rung == "batch":
            # Lockstep shares one wall clock across the ensemble, so the
            # per-task deadline applies on the scalar rung only.
            sims = simulate_on(rung, list(specs), options=options)
            return [_record_from(i, sim, rung) for i, sim in zip(indices, sims)]
        payloads = [(i, spec, rung, cfg.deadline, options)
                    for i, spec in zip(indices, specs)]
        return parallel_map(_instance_record, payloads,
                            max_workers=cfg.max_workers)

    def _recover_instance(self, ci: int, index: int, spec: DriverBankSpec,
                          rung0: str, tally: SolverTelemetry,
                          options: TransientOptions | None = None) -> dict:
        """Retry one instance on the scalar engine until it lands.

        A chunk that started on the batch rung counts one ``degradations``
        tick per recovered instance; each further attempt counts a retry.
        """
        cfg = self.config
        last_exc: BaseException | None = None
        if rung0 != "scalar":
            tally.degradations += 1
        for attempt in range(1 + cfg.max_retries):
            with faults.scope(chunk=ci, task=index, attempt=attempt,
                              phase="instance", engine="scalar"):
                try:
                    return _instance_record(
                        (index, spec, "scalar", cfg.deadline, options))
                except Exception as exc:
                    last_exc = exc
                    if attempt < cfg.max_retries:
                        tally.retries += 1
                        self._sleep_backoff(attempt)
        tally.unrecovered_failures += 1
        self.telemetry.merge(tally)
        error = CampaignError(
            f"instance {index} (chunk {ci}) failed on the scalar engine "
            f"after {1 + cfg.max_retries} attempts: {last_exc}"
        )
        error.telemetry = self.telemetry
        # The campaign is about to die unrecovered: journal the moment and
        # dump a flight bundle (events + spans + metrics) for the operator.
        obs_events.emit("campaign_unrecovered", chunk=ci, index=index,
                        error=str(last_exc))
        obs_health.maybe_flight_record(
            self.config.flight_dir, "campaign_unrecovered",
            extra={"chunk": ci, "index": index, "error": str(last_exc)})
        raise error from last_exc

    def _run_chunk(self, ci: int, indices: Sequence[int],
                   specs: Sequence[DriverBankSpec], rung0: str,
                   chunk_sp=trace.NOOP_SPAN,
                   options: TransientOptions | None = None) -> dict:
        cfg = self.config
        tally = SolverTelemetry()  # this chunk's recovery counters
        records: list[dict] | None = None
        chunk_start = time.perf_counter()
        for attempt in range(1 + cfg.max_retries):
            with faults.scope(chunk=ci, attempt=attempt, phase="bulk", engine=rung0):
                try:
                    records = self._bulk(indices, specs, rung0, options)
                    break
                except Exception:
                    chunk_sp.add_event("bulk_attempt_failed", attempt=attempt)
                    obs_events.emit("chunk_retry", chunk=ci, attempt=attempt,
                                    engine=rung0)
                    if attempt < cfg.max_retries:
                        tally.retries += 1
                        self._sleep_backoff(attempt)
        if records is not None and attempt > 0:
            # Latency the retry ladder added before the chunk finally landed
            # (first-attempt successes never observe into this histogram).
            obs_metrics.observe("repro_chunk_retry_latency_seconds",
                                time.perf_counter() - chunk_start)
        if records is None:
            # Bulk budget exhausted: recover instance by instance, each
            # walking its own rung ladder.
            tally.chunks_failed += 1
            chunk_sp.add_event("per_instance_recovery")
            obs_events.emit("chunk_degraded", chunk=ci, engine=rung0)
            records = [
                self._recover_instance(ci, i, spec, rung0, tally, options)
                for i, spec in zip(indices, specs)
            ]
            obs_metrics.observe("repro_chunk_retry_latency_seconds",
                                time.perf_counter() - chunk_start)
        self.telemetry.merge(tally)
        return {
            "chunk": int(ci),
            "indices": [int(i) for i in indices],
            "engine": rung0,
            "records": records,
            "campaign": {
                "retries": tally.retries,
                "degradations": tally.degradations,
                "chunks_failed": tally.chunks_failed,
            },
        }

    def run_specs(self, specs: Sequence[DriverBankSpec], kind: str = "simulate",
                  fingerprint_extra: dict | None = None,
                  options: TransientOptions | None = None) -> list[dict]:
        """Execute every spec, returning one summary record per spec.

        The core campaign loop: chunk the specs, skip chunks already in
        the journal (``resume``), execute the rest through the retry /
        degradation machinery, and commit the journal atomically after
        every completed chunk.  A ``KeyboardInterrupt`` (or any crash)
        propagates — the journal already holds every completed chunk, so
        re-running with ``resume=True`` finishes the campaign without
        recomputing them.

        ``options`` threads explicit :class:`TransientOptions` through
        every rung of the execution ladder (the serving layer's dispatch
        path).  Default (``None``) runs keep the journal fingerprint
        unchanged, so existing checkpoints stay resumable.
        """
        specs = list(specs)
        if not specs:
            return []
        # Count this call apart from the runner's lifetime totals, so the
        # session gets each counter once however often the runner is reused.
        lifetime, self.telemetry = self.telemetry, SolverTelemetry()
        try:
            return self._run_specs(specs, kind, fingerprint_extra, options)
        finally:
            call, self.telemetry = self.telemetry, lifetime.merge(self.telemetry)
            record_session(call)

    def _run_specs(self, specs: list[DriverBankSpec], kind: str,
                   fingerprint_extra: dict | None,
                   options: TransientOptions | None) -> list[dict]:
        cfg = self.config
        n = len(specs)
        rung0 = resolve_engine(cfg.engine, n)
        obs_metrics.inc("repro_engine_selected_total", labels={"engine": rung0})
        extra = dict(fingerprint_extra or {})
        if options is not None:
            extra["options"] = repr(options)
        fingerprint = self._fingerprint(kind, n, cfg.chunk_size, extra)
        header = {
            "version": CHECKPOINT_VERSION,
            "kind": kind,
            "n_items": n,
            "chunk_size": cfg.chunk_size,
            "fingerprint": fingerprint,
        }
        path = Path(cfg.checkpoint) if cfg.checkpoint is not None else None
        done: dict[int, dict] = {}
        with trace.span("campaign", kind=kind, items=n, engine=rung0,
                        chunk_size=cfg.chunk_size) as csp:
            if path is not None:
                if cfg.resume:
                    done = self._load_journal(path, header)
                    csp.set_attribute("resumed_chunks", len(done))
                    obs_events.emit("campaign_resumed", kind=kind,
                                    chunks=len(done))
                else:
                    # Fresh run: commit a header-only journal immediately so
                    # an interrupt during the first chunk still leaves valid
                    # JSONL.
                    self._write_journal(path, header, done)

            chunk_ids = range(0, n, cfg.chunk_size)
            for ci, start in enumerate(chunk_ids):
                if ci in done:
                    continue
                indices = list(range(start, min(start + cfg.chunk_size, n)))
                with trace.span("chunk", chunk=ci,
                                instances=len(indices)) as chunk_sp:
                    with faults.scope(chunk=ci):
                        faults.probe("chunk")
                        done[ci] = self._run_chunk(
                            ci, indices, [specs[i] for i in indices], rung0,
                            chunk_sp=chunk_sp, options=options,
                        )
                if path is not None:
                    self._write_journal(path, header, done)

        records = [rec for ci in sorted(done) for rec in done[ci]["records"]]
        records.sort(key=lambda rec: rec["index"])
        return records

    # -- workload wrappers -----------------------------------------------------------

    def run_sweep(self, knob: str, base: DriverBankSpec, values: Sequence[float],
                  apply: Callable[[DriverBankSpec, float], DriverBankSpec],
                  estimators: dict[str, Callable[[DriverBankSpec], float]]):
        """Fault-tolerant :func:`repro.analysis.sweeps.sweep` equivalent.

        Golden peaks come from the journaled campaign; the cheap
        closed-form estimators are recomputed in-process at assembly time
        (they are pure functions of the spec, so resumed results are
        identical to uninterrupted ones).
        """
        from .sweeps import assemble_sweep

        values = [float(v) for v in values]
        specs = [apply(base, v) for v in values]
        records = self.run_specs(
            specs, kind="sweep",
            fingerprint_extra={"knob": knob, "values": [repr(v) for v in values],
                               "base": repr(base)},
        )
        return assemble_sweep(
            knob, values, specs, [rec["peak"] for rec in records],
            [_record_telemetry(rec) for rec in records], estimators,
        )

    def run_montecarlo(self, spec: DriverBankSpec, spread=None, trials: int = 64,
                       seed: int = 0):
        """Fault-tolerant golden transient Monte Carlo (device variation).

        Mirrors :func:`repro.analysis.montecarlo.transient_peak_distribution`
        through the same trial builder, so the sample vector is identical
        for every chunking, worker count and recovery path, and the
        telemetry carries the same ``montecarlo_transient`` wall clock.
        """
        from .montecarlo import MonteCarloResult, device_trials

        wall_start = time.perf_counter()
        with trace.span("montecarlo", kind="transient", trials=trials) as msp:
            spread, trial_specs = device_trials(spec, spread, trials, seed)
            records = self.run_specs(
                trial_specs, kind="montecarlo",
                fingerprint_extra={"trials": trials, "seed": seed,
                                   "spread": repr(spread), "spec": repr(spec)},
            )
        tel = SolverTelemetry.aggregate(_record_telemetry(rec) for rec in records)
        tel.add_phase_seconds("montecarlo_transient", trace.elapsed(msp, wall_start))
        return MonteCarloResult.from_samples(
            np.array([rec["peak"] for rec in records]),
            simulate_ssn_cached(spec).peak_voltage, tel,
        )

    def run_simulate(self, specs: Sequence[DriverBankSpec]) -> list[SimulationSummary]:
        """Fault-tolerant golden simulation of a spec list (summaries)."""
        specs = list(specs)
        records = self.run_specs(
            specs, kind="simulate",
            fingerprint_extra={"specs": [repr(s) for s in specs]},
        )
        return [
            SimulationSummary(
                index=rec["index"], spec=specs[rec["index"]],
                peak_voltage=rec["peak"], peak_time=rec["peak_time"],
                engine=rec["engine"], telemetry=_record_telemetry(rec),
            )
            for rec in records
        ]
