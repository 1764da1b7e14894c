"""Process-pool execution for embarrassingly parallel experiment work.

Sweep points and Monte Carlo trials are independent, so the experiment
layer fans them out over a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping four invariants:

* **Deterministic ordering** — results come back in submission order
  (``Executor.map``), so parallel runs are element-for-element identical
  to serial runs.
* **Graceful serial fallback** — ``max_workers=1`` (the default) never
  touches multiprocessing; a pool that cannot be *created* (sandboxed
  environments, unpicklable payloads) silently computes the work
  in-process; and a pool that *breaks* mid-flight (a worker process
  killed by the OOM killer, a segfaulting extension, an injected crash)
  is respawned once and, if it breaks again, the map is recomputed
  serially with a :class:`RuntimeWarning` and a telemetry degradation
  flag — a crashed worker never loses the campaign.
* **Configurable worker count** — pass ``max_workers`` explicitly or set
  the ``REPRO_MAX_WORKERS`` environment variable; ``0``/``None`` means
  "one worker per CPU".
* **Exactly-once observability** — each worker task returns its result
  plus one envelope of whatever the parent's collectors (spans, metrics,
  events, session telemetry) recorded in the worker, and the map adopts
  it in one step; a broken attempt's envelopes are discarded with it.

Worker functions must be module-level (picklable) and their arguments
pickle-round-trippable; the frozen spec dataclasses used by the sweep and
Monte Carlo layers satisfy both.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Sequence, TypeVar

from ..observability import events as obs_events
from ..observability import metrics as obs_metrics
from ..observability import trace
from ..spice.telemetry import (SolverTelemetry, disable_session_telemetry,
                               enable_session_telemetry, record_session,
                               session_telemetry)
from ..testing import faults

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``max_workers`` is not passed.
WORKERS_ENV = "REPRO_MAX_WORKERS"

#: Broken-pool respawns attempted before degrading to the serial path.
POOL_RESPAWNS = 1


def resolve_workers(max_workers: int | None = None) -> int:
    """The effective worker count for one parallel region.

    ``None`` defers to the ``REPRO_MAX_WORKERS`` environment variable and
    finally to 1 (serial — the safe default for library use).  ``0`` means
    one worker per available CPU.

    A garbage environment value (``"auto"``, ``""``, a negative number)
    must never crash an experiment that would otherwise run fine serially:
    it falls back to 1 worker with a :class:`RuntimeWarning`.  An invalid
    *explicit* ``max_workers`` argument is a programming error and raises.
    """
    if max_workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if not env:
            return 1
        try:
            value = int(env)
        except ValueError:
            warnings.warn(
                f"{WORKERS_ENV}={env!r} is not an integer; running serially",
                RuntimeWarning, stacklevel=2,
            )
            return 1
        if value < 0:
            warnings.warn(
                f"{WORKERS_ENV}={env!r} is negative; running serially",
                RuntimeWarning, stacklevel=2,
            )
            return 1
        max_workers = value
    if max_workers < 0:
        raise ValueError(f"max_workers must be >= 0, got {max_workers}")
    if max_workers == 0:
        return os.cpu_count() or 1
    return max_workers


def _observability_config() -> tuple | None:
    """The parent's collector state as a picklable worker bootstrap.

    One entry per collector — tracer config, metrics on/off, journal
    config, session telemetry on/off.  None when all four are disabled
    (the production default), keeping the worker payload byte-identical to
    the uninstrumented one.
    """
    tracer = trace.active_tracer()
    want_metrics = obs_metrics.active_registry() is not None
    journal = obs_events.active_journal()
    want_session = session_telemetry() is not None
    if tracer is None and not want_metrics and journal is None and not want_session:
        return None
    return (None if tracer is None else tracer.config(), want_metrics,
            None if journal is None else journal.config(), want_session)


def _pool_invoke(
    payload: tuple[Callable[[T], R], int, T, tuple | None]
) -> tuple[R, dict | None]:
    """Worker-side shim: publish the task index as fault scope, then call.

    Module-level (picklable) on purpose.  The ``worker`` probe is what lets
    the fault injector kill this specific worker process deterministically;
    with no fault plan installed it is a no-op.

    Returns ``(result, envelope)``: the envelope is None when the parent
    runs no collector, else a dict of the ``spans``, ``metrics``,
    ``events`` and ``session`` recorded by fresh collectors enabled around
    the call.  Worker journals are memory-only (the parent's file keeps
    one writer), and the session holds only runs that executed in this
    task, so a fork-inherited memo hit records nothing.
    """
    fn, index, item, obs_cfg = payload
    with faults.scope(task=index):
        faults.probe("worker")
        if obs_cfg is None:
            return fn(item), None
        trace_cfg, want_metrics, events_cfg, want_session = obs_cfg
        if trace_cfg is not None:
            # Offset the sampling seed per task so head-based sampling
            # draws independently across the fleet, yet deterministically
            # for any worker count and dispatch order.  The per-task id
            # prefix keeps span ids globally unique even when one worker
            # process serves several tasks (each task re-creates the
            # tracer, restarting its id counter).
            cfg = dict(trace_cfg)
            cfg["seed"] = cfg.get("seed", 0) * 1_000_003 + index + 1
            cfg["id_prefix"] = f"{os.getpid():x}t{index:x}"
            trace.enable_tracing(**cfg)
        if want_metrics:
            obs_metrics.enable_metrics()
        if events_cfg is not None:
            obs_events.enable_events(**events_cfg)
        if want_session:
            enable_session_telemetry()
        try:
            result = fn(item)
            return result, {
                "spans": trace.snapshot_spans(),
                "metrics": obs_metrics.snapshot_metrics(),
                "events": obs_events.snapshot_events(),
                "session": session_telemetry(),
            }
        finally:
            trace.disable_tracing()
            obs_metrics.disable_metrics()
            obs_events.disable_events()
            disable_session_telemetry()


def _adopt(envelope: dict | None, parent_id: str | None) -> None:
    """Fold one worker envelope into this process's collectors.

    Spans re-parent under ``parent_id`` (the dispatching span), metrics
    merge, events join the journal and the session record merges into the
    session aggregator; each step is a no-op for a collector that is off.
    The session skips ``record_session``: its runs are in the metrics.
    """
    if envelope is None:
        return
    trace.adopt_spans(envelope["spans"], parent_id=parent_id)
    registry = obs_metrics.active_registry()
    if registry is not None and envelope["metrics"]:
        registry.merge_dict(envelope["metrics"])
    obs_events.adopt_events(envelope["events"])
    session = session_telemetry()
    if session is not None and envelope["session"] is not None:
        session.merge(envelope["session"])


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
    telemetry: SolverTelemetry | None = None,
) -> list[R]:
    """Order-preserving map over ``items``, optionally across processes.

    With one worker (or one item) this is a plain list comprehension —
    zero multiprocessing machinery.  Otherwise the items are dispatched to
    a process pool; results return in input order.  If the pool cannot be
    created it is skipped silently.  Exceptions raised by ``fn`` itself
    propagate unchanged in both modes.

    A :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
    process died — OOM kill, segfault, injected crash) is retried on a
    fresh pool ``POOL_RESPAWNS`` times; if the pool keeps breaking the map
    is recomputed serially with a ``RuntimeWarning`` and a ``degradations``
    tick on ``telemetry`` (else on the session aggregator, if enabled),
    never an exception: completed campaigns must survive crashed workers.

    Worker envelopes (see :func:`_pool_invoke`) are adopted into this
    process, so every task is observed exactly once whichever process ran
    it.  The ``parallel_map`` span's ``used_pool`` attribute records
    whether the results came from workers.
    """
    work: Sequence[T] = list(items)
    workers = resolve_workers(max_workers)
    with trace.span("parallel_map", items=len(work), workers=workers) as sp:
        if workers <= 1 or len(work) <= 1:
            sp.set_attribute("used_pool", False)
            return [fn(item) for item in work]
        obs_cfg = _observability_config()
        payloads = [(fn, i, item, obs_cfg) for i, item in enumerate(work)]
        for _ in range(1 + POOL_RESPAWNS):
            try:
                with ProcessPoolExecutor(max_workers=min(workers, len(work))) as pool:
                    outs = list(pool.map(_pool_invoke, payloads))
            except BrokenProcessPool:
                # A worker died mid-map.  Results from pure fns are
                # deterministic, so re-running the full map (fresh pool, then
                # serially) reproduces exactly what an unbroken run returns.
                # The dead attempt's envelopes die with its results.
                sp.add_event("broken_process_pool")
                continue
            except (OSError, pickle.PicklingError, TypeError):
                # Pool unavailable (sandbox/fork limits) or payload unpicklable:
                # degrade to the serial path rather than failing the experiment.
                sp.set_attribute("used_pool", False)
                return [fn(item) for item in work]
            parent_id = trace.current_span_id()
            for _, envelope in outs:
                _adopt(envelope, parent_id)
            sp.set_attribute("used_pool", True)
            return [result for result, _ in outs]
        warnings.warn(
            "process pool broke; recomputing the map serially",
            RuntimeWarning, stacklevel=2,
        )
        if telemetry is not None:
            # The caller owns folding this record into the session aggregator;
            # recording here too would double count.
            telemetry.degradations += 1
        else:
            record_session(SolverTelemetry(degradations=1))
        obs_events.emit("pool_degraded", items=len(work))
        sp.add_event("pool_degraded_to_serial")
        sp.set_attribute("used_pool", False)
        return [fn(item) for item in work]
