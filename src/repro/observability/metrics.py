"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the process-wide store of everything counted across a
session — solver counters (:mod:`repro.spice.telemetry` projects each
run's :class:`~repro.spice.telemetry.SolverTelemetry` into it), chunk
retry latency, request latency — in a form Prometheus can scrape
(:func:`repro.observability.export.to_prometheus_text`).

Merge semantics mirror ``SolverTelemetry.merge`` so records compose the
same way across chunks, engines and process-pool workers: counters and
histograms sum element-wise; gauges take the incoming value (last write
wins in merge order).  Registries serialize to plain dicts
(:meth:`MetricsRegistry.as_dict`), ship across
:class:`~concurrent.futures.ProcessPoolExecutor` workers in the worker
envelope, and fold back with :meth:`MetricsRegistry.merge_dict`.

Like tracing, the module-level helpers (:func:`inc`, :func:`observe`,
:func:`set_gauge`) are no-ops after a single global read while metrics are
disabled, so permanently-instrumented paths stay inside the <3%
disabled-overhead budget.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from typing import Mapping, Sequence

#: Default histogram buckets by metric name (upper bounds; +Inf implied).
#: Powers of two for iteration counts, log-spaced decades for seconds.
DEFAULT_BUCKETS: dict[str, tuple[float, ...]] = {
    "repro_newton_iterations_per_solve": (1, 2, 4, 8, 16, 32, 64),
    "repro_phase_seconds": (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0),
    "repro_chunk_retry_latency_seconds": (1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0),
    "repro_checkpoint_write_seconds": (1e-4, 1e-3, 1e-2, 0.1, 1.0),
    "repro_service_request_seconds": (1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0),
}

#: Fallback buckets for histograms observed without a registered default.
GENERIC_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6
)


def _label_key(labels: Mapping[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclasses.dataclass
class Counter:
    """Monotonically increasing total (merge: sum)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """Last-observed value (merge: incoming value wins)."""

    value: float = 0.0
    is_set: bool = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.is_set = True


class Histogram:
    """Fixed-bucket histogram: cumulative-export compatible counts + sum.

    ``bounds`` are finite upper bucket edges; an implicit +Inf bucket
    catches the tail.  Counts are stored per-bucket (non-cumulative) and
    cumulated only at export, which keeps merging a plain element-wise sum.
    """

    def __init__(self, bounds: Sequence[float]):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            return
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                break
        else:
            self.counts[-1] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate q-quantile from bucket midpoints (reporting only)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return math.nan
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                if i == len(self.bounds):
                    return self.bounds[-1]
                return self.bounds[i]
        return self.bounds[-1]


class MetricsRegistry:
    """Name+labels keyed metric store with SolverTelemetry-style merging."""

    def __init__(self):
        self._metrics: dict[tuple, object] = {}
        self._help: dict[str, str] = {}
        # Every update holds it: server compute threads share one registry.
        self._lock = threading.Lock()

    # -- registration ----------------------------------------------------------------

    def _get(self, kind: str, name: str, labels, factory):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
        elif type(metric).__name__.lower() != kind:
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, labels: Mapping[str, str] | None = None,
                help: str = "") -> Counter:
        if help:
            self._help.setdefault(name, help)
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, labels: Mapping[str, str] | None = None,
              help: str = "") -> Gauge:
        if help:
            self._help.setdefault(name, help)
        return self._get("gauge", name, labels, Gauge)

    def histogram(self, name: str, labels: Mapping[str, str] | None = None,
                  buckets: Sequence[float] | None = None,
                  help: str = "") -> Histogram:
        if help:
            self._help.setdefault(name, help)
        bounds = buckets or DEFAULT_BUCKETS.get(name, GENERIC_BUCKETS)
        return self._get("histogram", name, labels, lambda: Histogram(bounds))

    def help_text(self, name: str) -> str:
        return self._help.get(name, "")

    # -- access ----------------------------------------------------------------------

    def items(self):
        """(name, labels-tuple, metric) triples, sorted for stable export."""
        for (name, labels), metric in sorted(
            self._metrics.items(), key=lambda kv: kv[0]
        ):
            yield name, labels, metric

    def get(self, name: str, labels: Mapping[str, str] | None = None):
        return self._metrics.get((name, _label_key(labels)))

    def quantile(self, name: str, q: float,
                 labels: Mapping[str, str] | None = None) -> float:
        """Approximate q-quantile of a histogram, NaN when never observed.

        The health surface's latency view: a missing metric (endpoint
        never hit) reports NaN rather than raising, so ``/statusz`` can
        render every known endpoint uniformly.
        """
        metric = self.get(name, labels)
        if metric is None:
            return math.nan
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is not a histogram")
        return metric.quantile(q)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- merge / serialization -------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` in: counters/histograms sum, gauges overwrite."""
        return self.merge_dict(other.as_dict())

    def as_dict(self) -> dict:
        """JSON/pickle-friendly snapshot (ships across pool workers)."""
        out = []
        for name, labels, metric in self.items():
            entry: dict = {"name": name, "labels": list(labels)}
            if isinstance(metric, Counter):
                entry.update(kind="counter", value=metric.value)
            elif isinstance(metric, Gauge):
                entry.update(kind="gauge", value=metric.value, is_set=metric.is_set)
            else:
                entry.update(kind="histogram", bounds=list(metric.bounds),
                             counts=list(metric.counts), sum=metric.sum,
                             count=metric.count)
            out.append(entry)
        return {"metrics": out, "help": dict(self._help)}

    def merge_dict(self, data: dict) -> "MetricsRegistry":
        with self._lock:
            for name, text in data.get("help", {}).items():
                self._help.setdefault(name, text)
            for entry in data.get("metrics", []):
                labels = dict(entry.get("labels", []))
                kind = entry["kind"]
                if kind == "counter":
                    self.counter(entry["name"], labels).inc(entry["value"])
                elif kind == "gauge":
                    if entry.get("is_set", True):
                        self.gauge(entry["name"], labels).set(entry["value"])
                else:
                    hist = self.histogram(entry["name"], labels,
                                          buckets=entry["bounds"])
                    if tuple(hist.bounds) != tuple(entry["bounds"]):
                        raise ValueError(
                            f"histogram {entry['name']!r} bucket mismatch on merge"
                        )
                    for i, n in enumerate(entry["counts"]):
                        hist.counts[i] += n
                    hist.sum += entry["sum"]
                    hist.count += entry["count"]
        return self


# -- process-local registry ----------------------------------------------------------

_registry: MetricsRegistry | None = None


def enable_metrics() -> MetricsRegistry:
    """Install (or replace) the process-local registry and return it."""
    global _registry
    _registry = MetricsRegistry()
    return _registry


def disable_metrics() -> None:
    """Remove the process-local registry; the helpers revert to no-ops."""
    global _registry
    _registry = None


def active_registry() -> MetricsRegistry | None:
    """The live registry, or None when metrics are disabled (the default)."""
    return _registry


def inc(name: str, amount: float = 1.0,
        labels: Mapping[str, str] | None = None) -> None:
    """Bump a counter in the live registry (no-op while disabled)."""
    registry = _registry
    if registry is not None:
        with registry._lock:
            registry.counter(name, labels).inc(amount)


def observe(name: str, value: float,
            labels: Mapping[str, str] | None = None,
            buckets: Sequence[float] | None = None) -> None:
    """Observe into a histogram in the live registry (no-op while disabled)."""
    registry = _registry
    if registry is not None:
        with registry._lock:
            registry.histogram(name, labels, buckets=buckets).observe(value)


def set_gauge(name: str, value: float,
              labels: Mapping[str, str] | None = None) -> None:
    """Set a gauge in the live registry (no-op while disabled)."""
    registry = _registry
    if registry is not None:
        with registry._lock:
            registry.gauge(name, labels).set(value)


def snapshot_metrics() -> dict | None:
    """Serialize the live registry (worker -> parent payload), or None."""
    registry = _registry
    return None if registry is None else registry.as_dict()
