"""Solver observability: counters and timings for one (or many) runs.

Every Newton solve, transient run and DC analysis threads a
:class:`SolverTelemetry` record through the engine.  The record answers the
questions the assembly and LU caches made otherwise unanswerable — how
many LU factorizations were reused vs. recomputed, how many Newton
iterations each phase burned, and whether any time step had to be rejected
and retried — so an experiment can assert "0 unrecovered failures, N
recovered retries" instead of merely not crashing.

Records are plain dataclasses of ints/floats (plus one ``phase_seconds``
dict), so they pickle across :class:`~concurrent.futures.ProcessPoolExecutor`
workers and merge associatively: per-run records ride on
``TransientResult.telemetry`` / ``DcSolution.telemetry`` /
``SsnSimulation.telemetry``, and the analysis layer aggregates them with
:meth:`SolverTelemetry.aggregate` (sweeps, Monte Carlo, ``simulate_many``).

Process-wide, :func:`record_session` counts every finished run once into
the active metrics registry, the one process-wide store: this module alone
maps records to registry series (:func:`record_telemetry`) and back
(:meth:`SolverTelemetry.from_registry`, the CLI's ``--telemetry`` view).
Pool workers return their registry in their observability envelope, which
:func:`repro.analysis.parallel.parallel_map` merges.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Iterable, Optional

from ..observability import metrics as obs_metrics

#: Keys :meth:`SolverTelemetry.as_dict` derives from counters rather than
#: storing; never round-tripped into ``extras``.
_DERIVED_KEYS = frozenset({"ok", "recovered_rejections"})

#: Counters earlier versions stored and this one no longer has; stored
#: records and checkpoints that carry them load silently without them.
_RETIRED_KEYS = frozenset({"full_assemblies", "sparse_factorizations",
                           "sparse_pattern_reuses"})

#: ``extras`` keys of the engaged linear-algebra backends.
BACKEND_PREFIX = "backend_"

#: Surrogate-answer tags (``surrogate_hits``, set by
#: :meth:`repro.surrogate.SurrogateModel.simulation`).
SURROGATE_PREFIX = "surrogate_"

#: ``extras`` prefixes this version itself writes: never reported or warned
#: about as newer-producer counters.
OWN_PREFIXES = (BACKEND_PREFIX, SURROGATE_PREFIX)

#: Registry histogram of the projected phases (see :func:`record_telemetry`).
PHASE_METRIC = "repro_phase_seconds"

#: Unknown-counter names already warned about in this process (warn once).
_warned_extras: set[str] = set()


@dataclasses.dataclass
class SolverTelemetry:
    """Counters and wall-clock phases of one engine run (mutable, mergeable).

    Attributes:
        newton_solves: calls into :func:`repro.spice.solver.newton_solve`.
        newton_iterations: total Newton iterations across all solves
            (damped sub-steps count; linear direct solves count zero).
        accepted_steps: transient time steps committed to the result.
        step_rejections: solve attempts rejected by non-convergence or a
            non-finite iterate (includes any final, unrecovered one).
        step_retries: rejected steps re-attempted at a halved ``dt``
            (the *recovered* rejections, when the retry ultimately lands).
        lte_rejections: adaptive-mode steps redone because the local
            truncation error estimate exceeded tolerance (not failures).
        unrecovered_failures: rejections that exhausted the retry ladder
            (the run raised ``ConvergenceError``); 0 on any run that
            returned a result.
        gmin_steps: gmin-stepping continuation stages run by the DC solver.
        lu_cache_hits / lu_cache_misses: linear-circuit LU factorization
            reuses vs. (re)factorizations.
        lu_cache_invalidations: cached factors dropped because the
            assembled matrix no longer matched the cached one (staleness
            guard) despite an identical cache key.
        mask_steps: masked lockstep rounds an instance participated in
            inside the batched *adaptive* engine (each adaptive step is a
            big/half/half phase triple over per-instance step masks);
            0 on the scalar path and on fixed-step lockstep runs.
        base_assemblies: linear-base stamp passes (once per Newton solve).
        nonlinear_restamps: nonlinear-device restamp passes (once per
            Newton iterate).
        batch_fallbacks: instances that left the batched ensemble engine
            for the scalar path (Newton failure needing the step-halving /
            gmin recovery ladder); the scalar re-run's counters replace the
            instance's partial batched ones.
        retries: failed campaign attempts re-executed at the same engine
            rung after a backoff (see ``repro.analysis.campaign``); distinct
            from ``step_retries``, which counts time-step halvings inside
            one transient run.
        degradations: campaign instances recovered on the scalar engine
            after their chunk failed on the batch engine.
        chunks_failed: campaign chunks whose bulk execution exhausted its
            retry budget and entered per-instance recovery; a chunk that
            ultimately recovers still counts here (``unrecovered_failures``
            stays 0 unless recovery itself failed).
        checkpoint_writes: atomic campaign-checkpoint files committed via
            ``os.replace`` (one per completed chunk plus the final state).
        extras: numeric counters from *newer* producers that this version
            does not know as fields.  :meth:`from_dict` preserves them here
            (warning once per process per counter name) instead of silently
            dropping them, :meth:`merge` sums them per key, and
            :meth:`as_dict` re-emits them at the top level, so journals
            written by a newer version survive a round trip through an
            older one without losing counts.
        phase_seconds: wall-clock seconds per named phase ("ic", "dc",
            "stepping", "total", ...); merged by summing per key.  The
            batched engine splits its shared wall clock evenly across the
            per-instance records, so aggregates still sum to real time.
            When tracing is enabled (:mod:`repro.observability.trace`) the
            engine derives these values from the recorded span timings, so
            spans and telemetry report one consistent clock.
    """

    newton_solves: int = 0
    newton_iterations: int = 0
    accepted_steps: int = 0
    step_rejections: int = 0
    step_retries: int = 0
    lte_rejections: int = 0
    unrecovered_failures: int = 0
    gmin_steps: int = 0
    lu_cache_hits: int = 0
    lu_cache_misses: int = 0
    lu_cache_invalidations: int = 0
    mask_steps: int = 0
    base_assemblies: int = 0
    nonlinear_restamps: int = 0
    batch_fallbacks: int = 0
    retries: int = 0
    degradations: int = 0
    chunks_failed: int = 0
    checkpoint_writes: int = 0
    extras: dict = dataclasses.field(default_factory=dict)
    phase_seconds: dict = dataclasses.field(default_factory=dict)

    @property
    def recovered_rejections(self) -> int:
        """Rejected steps that the retry ladder ultimately recovered."""
        return self.step_rejections - self.unrecovered_failures

    def add_phase_seconds(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock time into one named phase."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def merge(self, other: "SolverTelemetry") -> "SolverTelemetry":
        """Fold ``other``'s counters into this record (returns self)."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0) + value
        for phase, seconds in other.phase_seconds.items():
            self.add_phase_seconds(phase, seconds)
        return self

    @classmethod
    def aggregate(cls, records: Iterable[Optional["SolverTelemetry"]]) -> "SolverTelemetry":
        """Sum of many per-run records (``None`` entries are skipped)."""
        total = cls()
        for rec in records:
            if rec is not None:
                total.merge(rec)
        return total

    @classmethod
    def from_dict(cls, data: dict) -> "SolverTelemetry":
        """Rebuild a record from :meth:`as_dict` output (journal round trip).

        The derived ``ok`` / ``recovered_rejections`` entries ``as_dict``
        adds and retired counters (``full_assemblies``) are skipped.  Any
        *other* unknown key — a counter written by a newer producer — is
        preserved in :attr:`extras` (numeric values only) with a
        once-per-process warning per counter name, so loading a newer
        journal degrades loudly and losslessly instead of silently dropping
        counts.
        """
        tel = cls(phase_seconds=dict(data.get("phase_seconds", {})))
        for name in _COUNTER_FIELDS:
            if name in data:
                setattr(tel, name, int(data[name]))
        # ``extras`` is never written as a wrapper; see as_dict.
        skip = {*_COUNTER_FIELDS, "extras", "phase_seconds",
                *_DERIVED_KEYS, *_RETIRED_KEYS}
        unknown = {k: v for k, v in data.items() if k not in skip}
        dropped = []
        for key, value in unknown.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                tel.extras[key] = tel.extras.get(key, 0) + value
            else:
                dropped.append(key)
        # Extras this version writes itself round-trip silently, not as
        # newer-producer surprises.
        unknown = {k: v for k, v in unknown.items()
                   if not k.startswith(OWN_PREFIXES)}
        fresh = sorted(set(unknown) - _warned_extras)
        if fresh:
            _warned_extras.update(fresh)
            kept = [k for k in fresh if k not in dropped]
            message = ("SolverTelemetry.from_dict: unknown counters from a "
                       f"newer producer: kept {kept} in extras")
            if dropped:
                message += f", dropped non-numeric {sorted(dropped)}"
            warnings.warn(message, RuntimeWarning, stacklevel=2)
        return tel

    @classmethod
    def from_registry(cls, registry: obs_metrics.MetricsRegistry) -> "SolverTelemetry":
        """Read back what :func:`record_telemetry` projected into ``registry``.

        Counter fields come from their ``repro_<field>_total`` counters
        (absent reads 0), ``phase_seconds`` from the phase histograms'
        sums, and ``backend_*`` extras from their counters.  Nothing else
        is read: other ``repro_surrogate_*`` names belong to the surrogate
        registry's own routing counters.
        """
        tel = cls()
        with registry._lock:
            for name in _COUNTER_FIELDS:
                counter = registry.get(f"repro_{name}_total")
                if counter is not None:
                    setattr(tel, name, int(counter.value))
            for name, labels, metric in registry.items():
                key = name[len("repro_"):-len("_total")]
                if name == PHASE_METRIC:
                    tel.phase_seconds[dict(labels)["phase"]] = metric.sum
                elif key.startswith(BACKEND_PREFIX) and name.endswith("_total"):
                    tel.extras[key] = int(metric.value)
        return tel

    def as_dict(self) -> dict:
        """Machine-readable summary (JSON-serializable).

        ``extras`` counters are re-emitted at the top level (not under a
        wrapper key), so a round trip through this version hands a newer
        consumer back the exact counters its producer wrote.
        """
        out = {name: getattr(self, name) for name in _COUNTER_FIELDS}
        out.update(self.extras)
        out["recovered_rejections"] = self.recovered_rejections
        out["phase_seconds"] = dict(self.phase_seconds)
        out["ok"] = self.unrecovered_failures == 0
        return out

    def format_report(self) -> str:
        """Human-readable multi-line summary (the CLI ``--telemetry`` view)."""
        lines = [
            "solver telemetry:",
            f"  newton solves / iterations:   {self.newton_solves} / {self.newton_iterations}",
            f"  accepted steps:               {self.accepted_steps}",
            f"  step rejections (recovered):  {self.step_rejections} ({self.recovered_rejections})",
            f"  LTE rejections (adaptive):    {self.lte_rejections}",
            f"  unrecovered failures:         {self.unrecovered_failures}",
            f"  gmin continuation stages:     {self.gmin_steps}",
            f"  LU cache hits / misses:       {self.lu_cache_hits} / {self.lu_cache_misses}"
            + (f" (+{self.lu_cache_invalidations} staleness drops)"
               if self.lu_cache_invalidations else ""),
            f"  assemblies (base/nonlin):     {self.base_assemblies} / "
            f"{self.nonlinear_restamps}",
        ]
        if self.mask_steps:
            lines.append(f"  adaptive-batch mask steps:    {self.mask_steps}")
        backends = {k[len(BACKEND_PREFIX):]: v for k, v in self.extras.items()
                    if k.startswith(BACKEND_PREFIX)}
        if backends:
            used = ", ".join(f"{k}={v}" for k, v in sorted(backends.items()))
            lines.append(f"  linear-algebra backends:      {used}")
        if self.batch_fallbacks:
            lines.append(f"  batch -> scalar fallbacks:    {self.batch_fallbacks}")
        if self.retries or self.degradations or self.chunks_failed:
            lines.append(
                f"  campaign retries/degrades:    {self.retries} / {self.degradations}"
                f" ({self.chunks_failed} chunks needed recovery)"
            )
        if self.checkpoint_writes:
            lines.append(f"  checkpoint commits:           {self.checkpoint_writes}")
        foreign = {k: v for k, v in self.extras.items()
                   if not k.startswith(OWN_PREFIXES)}
        if foreign:
            extras = ", ".join(f"{k}={v}" for k, v in sorted(foreign.items()))
            lines.append(f"  newer-producer counters:      {extras}")
        if self.phase_seconds:
            phases = ", ".join(
                f"{name} {secs:.3g}s" for name, secs in sorted(self.phase_seconds.items())
            )
            lines.append(f"  wall clock: {phases}")
        return "\n".join(lines)


#: The plain integer counters of a record, in field order.
_COUNTER_FIELDS = tuple(f.name for f in dataclasses.fields(SolverTelemetry)
                        if f.name not in ("phase_seconds", "extras"))


def record_backend(telemetry: SolverTelemetry | None, backend: str) -> None:
    """Count one run's engaged linear-algebra backend in ``extras``.

    ``backend`` names the linear-algebra path (``"dense_lu"``).  Stored as
    ``backend_<name>`` counters so :meth:`SolverTelemetry.merge` sums them
    across runs and benchmark reports are self-describing about what
    actually executed.
    """
    if telemetry is not None:
        key = BACKEND_PREFIX + backend
        telemetry.extras[key] = telemetry.extras.get(key, 0) + 1


# -- registry projection -------------------------------------------------------------

def record_telemetry(registry: obs_metrics.MetricsRegistry,
                     telemetry: SolverTelemetry) -> None:
    """Project one run's record into ``registry``'s counters and histograms.

    Counter fields and ``extras`` map to ``repro_<field>_total``; the run's
    phases and its mean Newton iterations per solve are observed into
    ``repro_phase_seconds{phase=...}`` and
    ``repro_newton_iterations_per_solve``.  Counters sum like
    :meth:`SolverTelemetry.merge`, and :meth:`SolverTelemetry.from_registry`
    reads them back.
    """
    with registry._lock:
        for name in _COUNTER_FIELDS:
            value = getattr(telemetry, name)
            if value:
                registry.counter(f"repro_{name}_total").inc(value)
        for key, value in telemetry.extras.items():
            registry.counter(f"repro_{key}_total").inc(value)
        for phase, seconds in telemetry.phase_seconds.items():
            registry.histogram(PHASE_METRIC, labels={"phase": phase}).observe(seconds)
        if telemetry.newton_solves:
            registry.histogram("repro_newton_iterations_per_solve").observe(
                telemetry.newton_iterations / telemetry.newton_solves)


def record_session(telemetry: SolverTelemetry | None) -> None:
    """Count one finished run into the active metrics registry (if on): the
    one path from engine work to process-wide counters."""
    registry = obs_metrics.active_registry()
    if registry is not None and telemetry is not None:
        record_telemetry(registry, telemetry)
