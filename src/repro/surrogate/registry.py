"""The surrogate registry: lookup, routing decisions, and their telemetry.

A :class:`SurrogateRegistry` holds fitted :class:`SurrogateModel` s keyed
by (technology, topology signature, operating region) and turns a query
spec into one of three routing decisions:

* **hit** — some model's full validity contract accepts the spec; the
  closed-form answer is authoritative (within its recorded error bound).
* **refusal** — candidate models exist for the spec's (technology,
  topology) but every one declines: out of box, wrong damping regime,
  template mismatch, a violated error bound, or an audit **demotion**
  (the shadow monitor observed the model breaching its served tolerance
  and benched it; see :mod:`repro.surrogate.audit`).  The refusal
  *reason* is reported so callers can see why the fast path was not
  taken.
* **miss** — no model covers the (technology, topology) at all.

Refusals and misses both route to the full engines; the distinction
matters operationally (a refusal names a fittable gap, a miss an unfitted
space) and each decision increments its own ``repro_surrogate_*`` counter
and lands in a trace span.
"""

from __future__ import annotations

import threading

from ..analysis.driver_bank import DriverBankSpec
from ..observability import events as obs_events
from ..observability import metrics as obs_metrics
from ..observability import trace
from .model import SurrogateModel, topology_signature

#: Prometheus-side counters (``repro_surrogate_refusals_total`` additionally
#: carries a ``reason`` label with the refusal category).
HITS_METRIC = "repro_surrogate_hits_total"
MISSES_METRIC = "repro_surrogate_misses_total"
REFUSALS_METRIC = "repro_surrogate_refusals_total"
DEMOTIONS_METRIC = "repro_surrogate_audit_demotions_total"


def _reason_category(reason: str) -> str:
    """The metrics label of a refusal reason: the part before the colon."""
    return reason.split(":", 1)[0].strip()


class SurrogateRegistry:
    """Thread-safe collection of fitted surrogates with routing telemetry."""

    def __init__(self):
        self._models: dict[tuple[str, str, str], SurrogateModel] = {}
        self._demoted: dict[tuple[str, str, str], str] = {}
        self._lock = threading.Lock()

    def register(self, model: SurrogateModel) -> tuple[str, str, str]:
        """Add (or replace) the model under its (tech, topology, region) key.

        Re-registering a demoted slot reinstates it: a fresh fit replaces
        whatever evidence benched the old model.
        """
        with self._lock:
            self._models[model.key] = model
            self._demoted.pop(model.key, None)
        return model.key

    def models(self) -> list[SurrogateModel]:
        with self._lock:
            return list(self._models.values())

    def clear(self) -> None:
        with self._lock:
            self._models.clear()
            self._demoted.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    # -- demotion (the audit monitor's enforcement half) -----------------------------

    def demote(self, key: tuple[str, str, str], reason: str) -> bool:
        """Bench one (technology, topology, region) slot.

        A demoted model stays registered but every lookup refuses it
        (category ``"demoted"``), so queries take the exact
        full-simulation path until a refit reinstates the slot.  Returns
        False when the slot was already demoted (idempotent — one breach,
        one event).
        """
        with self._lock:
            if key in self._demoted:
                return False
            self._demoted[key] = reason
        obs_metrics.inc(DEMOTIONS_METRIC)
        obs_events.emit(
            "surrogate_demoted", technology=key[0], topology=key[1],
            operating_region=key[2], reason=reason)
        return True

    def demoted(self) -> dict[tuple[str, str, str], str]:
        """The benched slots and why (key -> demotion reason)."""
        with self._lock:
            return dict(self._demoted)

    # -- routing ---------------------------------------------------------------------

    def lookup(self, spec: DriverBankSpec) -> tuple[SurrogateModel | None, str | None]:
        """Route one query: ``(model, None)`` hit, ``(None, reason)`` refusal,
        ``(None, None)`` miss.

        Candidates are every registered model of the spec's (technology,
        topology signature), across operating regions; each applies its own
        validity contract.  The first acceptance wins; with none, the first
        candidate's reason is reported.  Every decision increments its
        ``repro_surrogate_*`` counter and is recorded in a trace span.
        """
        signature = topology_signature(spec)
        with self._lock:
            candidates = [m for (tech, topo, _), m in self._models.items()
                          if tech == spec.technology.name and topo == signature]
            demoted = dict(self._demoted)
        outcome, reason, model = "miss", None, None
        for candidate in candidates:
            if candidate.key in demoted:
                why = f"demoted: {demoted[candidate.key]}"
            else:
                why = candidate.validate(spec)
            if why is None:
                outcome, model = "hit", candidate
                break
            if reason is None:
                reason = why
        if model is None and reason is not None:
            outcome = "refusal"

        if outcome == "hit":
            obs_metrics.inc(HITS_METRIC)
        elif outcome == "refusal":
            obs_metrics.inc(REFUSALS_METRIC,
                            labels={"reason": _reason_category(reason)})
            obs_events.emit(
                "surrogate_refused", technology=spec.technology.name,
                topology=signature, reason=reason)
        else:
            obs_metrics.inc(MISSES_METRIC)
        with trace.span("surrogate_route", outcome=outcome,
                        technology=spec.technology.name, topology=signature,
                        reason=reason or ""):
            pass
        return model, reason
