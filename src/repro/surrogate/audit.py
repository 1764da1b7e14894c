"""Shadow-audit accuracy monitor: re-check served surrogate bounds in flight.

A fitted surrogate serves a *frozen* error bound — measured against the
golden MNA at fit time, then trusted forever.  The paper's <3% claim is
only as good as that trust: device drift, a stale technology card, or a
query distribution creeping toward a region boundary can all push real
error past the served tolerance with no signal anywhere.  (ROADMAP calls
this out as the open surrogate headroom: store-driven error/age-triggered
refit.  This module is the observe-and-enforce half.)

The :class:`SurrogateAuditor` closes the loop without adding solver work:

1. **Deterministic sampling** — a configurable fraction of surrogate-served
   answers is selected by hashing the request's result key, so the same
   key is always either audited or not (reproducible across runs, no RNG
   state).
2. **Piggybacked references** — the service already schedules a background
   golden refinement behind every surrogate answer; the auditor simply
   captures the surrogate estimate when the answer is served and resolves
   it against the refined record's golden peak when that computation
   lands.  Zero extra simulations.
3. **Rolling error accounting** — each resolution folds into a
   per-(technology, topology, operating_region) window of
   (estimate, reference) pairs summarized by the same
   :class:`~repro.analysis.metrics.ErrorSummary` the fitter reports, and
   exports ``repro_surrogate_audit_*`` metrics.
4. **Auto-demotion** — when one observed error breaches the model's served
   ``tolerance_percent``, the slot is demoted in the registry (event
   ``surrogate_demoted``, counter
   ``repro_surrogate_audit_demotions_total``): subsequent queries take the
   exact full-simulation path until a refit reinstates it.
"""

from __future__ import annotations

import collections
import dataclasses
import threading
import zlib

from ..analysis.metrics import ErrorSummary
from ..observability import events as obs_events
from ..observability import metrics as obs_metrics
from .model import SurrogateModel
from .registry import SurrogateRegistry

#: Exported metric names (all carry technology/topology/operating_region
#: labels except the registry-owned demotions counter).
SAMPLES_METRIC = "repro_surrogate_audit_samples_total"
BREACHES_METRIC = "repro_surrogate_audit_breaches_total"
MAX_ERROR_METRIC = "repro_surrogate_audit_max_error_percent"

#: Default fraction of surrogate answers shadow-audited.
DEFAULT_AUDIT_FRACTION = 0.1

#: Default rolling window of (estimate, reference) pairs per region.
DEFAULT_WINDOW = 256


def _key_fraction(key: str) -> float:
    """Map a result key to a stable point in [0, 1) for sampling."""
    try:
        bits = int(key[:8], 16)
    except (TypeError, ValueError):
        bits = zlib.crc32(str(key).encode())
    return (bits & 0xFFFFFFFF) / 2.0 ** 32


@dataclasses.dataclass(frozen=True)
class AuditObservation:
    """One resolved audit: the served estimate vs the golden reference."""

    key: str
    technology: str
    topology: str
    operating_region: str
    estimate: float
    reference: float
    error_percent: float
    tolerance_percent: float
    breached: bool
    demoted: bool


class SurrogateAuditor:
    """Samples surrogate answers and folds golden re-checks into summaries."""

    def __init__(self, registry: SurrogateRegistry,
                 fraction: float = DEFAULT_AUDIT_FRACTION,
                 window: int = DEFAULT_WINDOW):
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"audit fraction must be in [0, 1], got {fraction}")
        if window < 1:
            raise ValueError(f"audit window must be >= 1, got {window}")
        self.registry = registry
        self.fraction = fraction
        self.window = window
        self._pending: dict[str, tuple[SurrogateModel, float]] = {}
        self._pairs: dict[tuple[str, str, str],
                          collections.deque[tuple[float, float]]] = {}
        self._lock = threading.Lock()

    # -- sampling --------------------------------------------------------------------

    def should_sample(self, key: str) -> bool:
        """Whether this key's surrogate answer gets a shadow audit."""
        if self.fraction <= 0.0:
            return False
        return _key_fraction(key) < self.fraction

    def track(self, key: str, model: SurrogateModel, estimate: float) -> bool:
        """Capture a sampled answer awaiting its golden reference.

        Returns whether the key was actually enrolled (sampled and not
        already pending).  Call only when a background refinement was
        scheduled, so every tracked key eventually resolves or discards.
        """
        if not self.should_sample(key):
            return False
        with self._lock:
            if key in self._pending:
                return False
            self._pending[key] = (model, float(estimate))
        return True

    def discard(self, key: str) -> None:
        """Drop a pending audit whose reference computation failed."""
        with self._lock:
            self._pending.pop(key, None)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    # -- resolution ------------------------------------------------------------------

    def resolve(self, key: str, reference: float) -> AuditObservation | None:
        """Fold one golden reference in; None when the key wasn't tracked.

        Updates the region's rolling window and metrics, and demotes the
        region in the registry when the observed error breaches the
        model's served tolerance.
        """
        with self._lock:
            tracked = self._pending.pop(key, None)
        if tracked is None:
            return None
        model, estimate = tracked
        reference = float(reference)
        if reference == 0.0:
            return None  # an undefined percent error teaches nothing
        error_percent = abs(estimate - reference) / abs(reference) * 100.0
        with self._lock:
            pairs = self._pairs.setdefault(
                model.key, collections.deque(maxlen=self.window))
            pairs.append((estimate, reference))
            summary = ErrorSummary.from_pairs(
                [e for e, _ in pairs], [r for _, r in pairs])
        labels = {"technology": model.technology, "topology": model.topology,
                  "operating_region": model.operating_region}
        obs_metrics.inc(SAMPLES_METRIC, labels=labels)
        obs_metrics.set_gauge(MAX_ERROR_METRIC, summary.max_abs_percent,
                              labels=labels)
        breached = error_percent > model.tolerance_percent
        demoted = False
        if breached:
            obs_metrics.inc(BREACHES_METRIC, labels=labels)
            reason = (
                f"audit observed {error_percent:.2f}% peak error, over the "
                f"served {model.tolerance_percent:g}% tolerance")
            demoted = self.registry.demote(model.key, reason)
        obs_events.emit(
            "surrogate_audited", key=key[:12], error_percent=error_percent,
            breached=breached, **labels)
        return AuditObservation(
            key=key, technology=model.technology, topology=model.topology,
            operating_region=model.operating_region, estimate=estimate,
            reference=reference, error_percent=error_percent,
            tolerance_percent=model.tolerance_percent, breached=breached,
            demoted=demoted)

    # -- reporting -------------------------------------------------------------------

    def summaries(self) -> dict[tuple[str, str, str], ErrorSummary]:
        """Rolling observed-error summaries per audited region."""
        with self._lock:
            snapshot = {k: list(pairs) for k, pairs in self._pairs.items()}
        return {
            k: ErrorSummary.from_pairs([e for e, _ in pairs],
                                       [r for _, r in pairs])
            for k, pairs in snapshot.items() if pairs
        }

    def as_payload(self) -> dict:
        """JSON view for ``/statusz``: per-region observed-error summaries."""
        regions = {}
        demoted = self.registry.demoted()
        for key, summary in sorted(self.summaries().items()):
            regions["/".join(key)] = {
                "samples": summary.n_points,
                "mean_abs_percent": summary.mean_abs_percent,
                "max_abs_percent": summary.max_abs_percent,
                "demoted": key in demoted,
            }
        return {
            "fraction": self.fraction,
            "window": self.window,
            "pending": self.pending_count(),
            "regions": regions,
            "demoted": [
                {"technology": key[0], "topology": key[1],
                 "operating_region": key[2], "reason": reason}
                for key, reason in sorted(demoted.items())
            ],
        }
