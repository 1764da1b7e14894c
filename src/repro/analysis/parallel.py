"""Process-pool execution for embarrassingly parallel experiment work.

Sweep points and Monte Carlo trials are independent, so the experiment
layer fans them out over a :class:`~concurrent.futures.ProcessPoolExecutor`
while keeping three invariants:

* **Deterministic ordering** — results come back in submission order
  (``Executor.map``), so parallel runs are element-for-element identical
  to serial runs.
* **Configurable worker count** — pass ``max_workers`` explicitly or set
  the ``REPRO_MAX_WORKERS`` environment variable; ``0`` means "one
  worker per CPU".  One worker (the default) never touches
  multiprocessing.
* **Exactly-once observability** — each worker task returns its result
  plus one envelope of whatever the parent's collectors (spans, metrics,
  events) recorded in the worker, and the map adopts
  the envelopes only once every task has returned, so a map that raises
  adopts nothing.

The pool only fans out; it recovers nothing.  Whatever it raises — an
exception from the mapped function, an unpicklable payload, the broken
pool's error after a worker is killed — propagates once and unchanged.
Recovery belongs to the caller: :class:`repro.analysis.campaign.CampaignRunner`
retries the failed chunk and then recovers its instances serially on the
scalar engine.

Worker functions must be module-level (picklable) and their arguments
pickle-round-trippable; the frozen spec dataclasses used by the sweep and
Monte Carlo layers satisfy both.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ..observability import events as obs_events
from ..observability import metrics as obs_metrics
from ..observability import trace

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable consulted when ``max_workers`` is not passed.
WORKERS_ENV = "REPRO_MAX_WORKERS"


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
    config.  None when all three are disabled (the production default),
    keeping the worker payload byte-identical to the uninstrumented one.
    """
    tracer = trace.active_tracer()
    want_metrics = obs_metrics.active_registry() is not None
    journal = obs_events.active_journal()
    if tracer is None and not want_metrics and journal is None:
        return None
    return (None if tracer is None else tracer.config(), want_metrics,
            None if journal is None else journal.config())


def _pool_invoke(
    payload: tuple[Callable[[T], R], int, T, tuple | None]
) -> tuple[R, dict | None]:
    """Worker-side shim: call ``fn`` under fresh collectors.  Module-level
    (picklable) on purpose.

    Returns ``(result, envelope)``: the envelope is None when the parent
    runs no collector, else a dict of the ``spans``, ``metrics`` and
    ``events`` recorded by fresh collectors enabled around the call.
    Worker journals are memory-only (the parent's file keeps one writer),
    and the registry holds only runs that executed in this task, so a
    fork-inherited memo hit records nothing.
    """
    fn, index, item, obs_cfg = payload
    if obs_cfg is None:
        return fn(item), None
    trace_cfg, want_metrics, events_cfg = obs_cfg
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
    try:
        result = fn(item)
        return result, {
            "spans": trace.snapshot_spans(),
            "metrics": obs_metrics.snapshot_metrics(),
            "events": obs_events.snapshot_events(),
        }
    finally:
        trace.disable_tracing()
        obs_metrics.disable_metrics()
        obs_events.disable_events()


def _adopt(envelope: dict | None, parent_id: str | None) -> None:
    """Fold one worker envelope into this process's collectors.

    Spans re-parent under ``parent_id`` (the dispatching span), metrics
    merge and events join the journal; each step is a no-op for a
    collector that is off.
    """
    if envelope is None:
        return
    trace.adopt_spans(envelope["spans"], parent_id=parent_id)
    registry = obs_metrics.active_registry()
    if registry is not None and envelope["metrics"]:
        registry.merge_dict(envelope["metrics"])
    obs_events.adopt_events(envelope["events"])


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    max_workers: int | None = None,
) -> list[R]:
    """Order-preserving map over ``items``, optionally across processes.

    With one worker (or one item) this is a plain list comprehension —
    zero multiprocessing machinery.  Otherwise the items are dispatched to
    a process pool; results return in input order.  Anything the map
    raises — from ``fn``, from pickling, or the broken pool's error when
    a worker dies — propagates once and unchanged; no item is ever run
    twice.

    Worker envelopes (see :func:`_pool_invoke`) are adopted into this
    process, so every task is observed exactly once whichever process ran
    it.  The ``parallel_map`` span's ``used_pool`` attribute records
    whether the items were dispatched to workers.
    """
    work: Sequence[T] = list(items)
    workers = resolve_workers(max_workers)
    use_pool = workers > 1 and len(work) > 1
    with trace.span("parallel_map", items=len(work), workers=workers,
                    used_pool=use_pool):
        if not use_pool:
            return [fn(item) for item in work]
        obs_cfg = _observability_config()
        payloads = [(fn, i, item, obs_cfg) for i, item in enumerate(work)]
        with ProcessPoolExecutor(max_workers=min(workers, len(work))) as pool:
            outs = list(pool.map(_pool_invoke, payloads))
        parent_id = trace.current_span_id()
        for _, envelope in outs:
            _adopt(envelope, parent_id)
        return [result for result, _ in outs]
