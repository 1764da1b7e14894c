"""Deterministic, scoped fault injection for the recovery-path test suite.

Every recovery path in the campaign runner — step-halving inside a
transient, per-chunk retries (a killed pool worker among their causes),
the batch -> scalar engine ladder, checkpoint/resume after an interrupt —
must be *exercised*, not trusted.  This module plants cheap probes at the
engine's failure-sensitive sites; with no plan installed (the production
default) every probe is a handful of nanoseconds and a ``None`` check.

A **plan** is a list of :class:`FaultRule` entries, each naming a fault
*kind* and the scope it fires in.  Rules are installed per process via
:func:`install_faults`, which also mirrors the spec into the
``REPRO_FAULTS`` environment variable so process-pool workers (fork *or*
spawn start methods) observe the same plan.  Firing is fully deterministic:
a rule fires exactly when its scope selectors match the current execution
scope (chunk index, task index, attempt number, ladder phase, engine rung)
and, optionally, only on its ``at``-th matching probe.

Kinds and the sites they fire at:

==============  ============  ====================================================
kind            probe site    effect when fired
==============  ============  ====================================================
``newton``      ``newton``    the Newton solver raises ``ConvergenceError``
``worker``      ``worker``    a pool worker process dies (``os._exit``) before
                              a campaign instance runs; no-op outside a worker,
                              so in-process instance recovery is never killed
``stall``       ``task``      sleeps ``seconds`` so a task misses its deadline
``interrupt``   ``chunk``     raises ``KeyboardInterrupt`` (SIGINT semantics)
``crash-write`` ``checkpoint``raises :class:`InjectedCrash` mid checkpoint write
``engine``      ``engine``    raises :class:`InjectedFault` before a bulk chunk
                              executes (typically scoped ``engine=batch``)
==============  ============  ====================================================

Spec strings are compact and shell-friendly, e.g.::

    install_faults("newton:chunk=1:phase=bulk, worker:task=0")
    install_faults("stall:task=2:seconds=0.05:engine=scalar")
    install_faults("interrupt:chunk=2:at=0")

The campaign runner publishes the current scope with the :func:`scope`
context manager; scope is carried in a contextvar, so it nests naturally
and forks into pool workers on fork-start platforms.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import multiprocessing
import os
import time

#: Environment variable mirroring the installed plan into worker processes.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code of a worker killed by the ``worker`` fault (visible in logs).
_WORKER_EXIT_CODE = 13

#: kind -> probe site it fires at.
_SITE_OF = {
    "newton": "newton",
    "worker": "worker",
    "stall": "task",
    "interrupt": "chunk",
    "crash-write": "checkpoint",
    "engine": "engine",
}

#: Scope selector keys a rule may constrain (all optional).
_INT_KEYS = ("chunk", "task")
_STR_KEYS = ("phase", "engine")


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault injector."""


class InjectedCrash(InjectedFault):
    """A simulated hard crash (used to test checkpoint-write atomicity)."""


@dataclasses.dataclass
class FaultRule:
    """One armed fault: a kind plus the scope selectors that trigger it.

    Attributes:
        kind: one of ``newton``/``worker``/``stall``/``interrupt``/
            ``crash-write``/``engine``.
        chunk, task: fire only when the current scope carries this chunk /
            task index (``None`` matches any).
        attempts: fire only on these attempt numbers (``None`` = all).
        phase: fire only in this campaign phase (``"bulk"``/``"instance"``).
        engine: fire only on this engine rung (``"batch"``/``"scalar"``).
        at: fire only on the N-th (0-based) scope-matching probe; ``None``
            fires on every match.
        seconds: sleep duration of a ``stall`` rule.
        hits: scope-matching probes seen so far (mutable bookkeeping).
        fired: times the rule actually fired.
    """

    kind: str
    chunk: int | None = None
    task: int | None = None
    attempts: tuple[int, ...] | None = None
    phase: str | None = None
    engine: str | None = None
    at: int | None = None
    seconds: float = 0.0
    hits: int = 0
    fired: int = 0

    def __post_init__(self):
        if self.kind not in _SITE_OF:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {sorted(_SITE_OF)}"
            )

    @property
    def site(self) -> str:
        return _SITE_OF[self.kind]

    def matches(self, scope_now: dict) -> bool:
        """Whether this rule's selectors all hold in the given scope."""
        for key in _INT_KEYS + _STR_KEYS:
            want = getattr(self, key)
            if want is not None and scope_now.get(key) != want:
                return False
        if self.attempts is not None and scope_now.get("attempt") not in self.attempts:
            return False
        return True


def parse_faults(spec: str) -> list[FaultRule]:
    """Parse a comma-separated plan spec into rules.

    Each entry is ``kind[:key=value]...``; integer keys take comma-free
    values except ``attempts``, which accepts ``attempts=0+1`` (the ``+``
    keeps entry splitting unambiguous).
    """
    rules = []
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        kwargs: dict = {}
        for part in parts[1:]:
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _INT_KEYS or key == "at":
                kwargs[key] = int(value)
            elif key == "attempts" or key == "attempt":
                kwargs["attempts"] = tuple(int(v) for v in value.split("+"))
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            elif key in _STR_KEYS:
                kwargs[key] = value
            else:
                raise ValueError(f"unknown fault selector {key!r} in {entry!r}")
        rules.append(FaultRule(kind=parts[0].strip(), **kwargs))
    return rules


def format_faults(rules: list[FaultRule]) -> str:
    """Inverse of :func:`parse_faults` (selectors only, no counters)."""
    entries = []
    for rule in rules:
        parts = [rule.kind]
        for key in _INT_KEYS + _STR_KEYS + ("at",):
            value = getattr(rule, key)
            if value is not None:
                parts.append(f"{key}={value}")
        if rule.attempts is not None:
            parts.append("attempts=" + "+".join(str(a) for a in rule.attempts))
        if rule.seconds:
            parts.append(f"seconds={rule.seconds!r}")
        entries.append(":".join(parts))
    return ",".join(entries)


# -- plan and scope state ------------------------------------------------------------

_plan_var: contextvars.ContextVar[list[FaultRule] | None] = contextvars.ContextVar(
    "repro_fault_plan", default=None
)
_scope_var: contextvars.ContextVar[dict] = contextvars.ContextVar(
    "repro_fault_scope", default={}
)
#: Per-process cache of the plan parsed from the environment: (spec, rules).
_env_plan: tuple[str, list[FaultRule]] | None = None


def install_faults(spec: str | list[FaultRule], mirror_env: bool = True) -> list[FaultRule]:
    """Arm a fault plan in this process (and, via env, in future workers).

    Returns the live rule list so tests can assert ``fired`` counts.
    """
    rules = parse_faults(spec) if isinstance(spec, str) else list(spec)
    _plan_var.set(rules)
    if mirror_env:
        os.environ[FAULTS_ENV] = (
            spec if isinstance(spec, str) else format_faults(rules)
        )
    return rules


def clear_faults() -> None:
    """Disarm all faults (contextvar and environment mirror)."""
    global _env_plan
    _plan_var.set(None)
    _env_plan = None
    os.environ.pop(FAULTS_ENV, None)


def _active_plan() -> list[FaultRule] | None:
    """The armed rules, if any: contextvar first, then the env mirror.

    The env path makes plans visible to spawn-start pool workers (which
    inherit the environment but not contextvars); the parsed rules are
    cached per process keyed on the spec string, so their ``at`` counters
    stay deterministic within one worker.
    """
    plan = _plan_var.get()
    if plan is not None:
        return plan
    global _env_plan
    spec = os.environ.get(FAULTS_ENV)
    if not spec:
        return None
    if _env_plan is None or _env_plan[0] != spec:
        _env_plan = (spec, parse_faults(spec))
    return _env_plan[1]


@contextlib.contextmanager
def scope(**updates):
    """Push execution-scope keys (chunk/task/attempt/phase/engine) for probes."""
    merged = dict(_scope_var.get())
    merged.update({k: v for k, v in updates.items() if v is not None})
    token = _scope_var.set(merged)
    try:
        yield merged
    finally:
        _scope_var.reset(token)


def current_scope() -> dict:
    """The merged scope dict probes match against (read-only view)."""
    return dict(_scope_var.get())


def fire(site: str) -> FaultRule | None:
    """The rule firing at ``site`` under the current scope, or None.

    Consumes one matching probe per armed rule (for ``at=`` counting) and
    returns the first rule that fires.  Callers that need a non-default
    effect (the Newton solver raising its own ``ConvergenceError``) use
    this directly; everything else goes through :func:`probe`.
    """
    plan = _active_plan()
    if not plan:
        return None
    scope_now = _scope_var.get()
    hit = None
    for rule in plan:
        if rule.site != site or not rule.matches(scope_now):
            continue
        position = rule.hits
        rule.hits += 1
        if rule.at is not None and rule.at != position:
            continue
        if hit is None:
            rule.fired += 1
            hit = rule
    return hit


def probe(site: str) -> None:
    """Fire-and-act probe for one site (no-op when nothing matches).

    Effects by kind: ``worker`` hard-kills the current *pool worker*
    process, breaking its pool (a no-op in the main process, so the
    campaign's in-process instance recovery is never killed); ``stall``
    sleeps; ``interrupt`` raises ``KeyboardInterrupt``; ``crash-write``
    raises :class:`InjectedCrash`; ``engine`` raises
    :class:`InjectedFault`.
    """
    rule = fire(site)
    if rule is None:
        return
    if rule.kind == "worker":
        if multiprocessing.parent_process() is not None:
            os._exit(_WORKER_EXIT_CODE)
        return
    if rule.kind == "stall":
        time.sleep(rule.seconds)
        return
    if rule.kind == "interrupt":
        raise KeyboardInterrupt("injected interrupt (fault injection)")
    if rule.kind == "crash-write":
        raise InjectedCrash("injected crash during checkpoint write")
    raise InjectedFault(f"injected {rule.kind} fault at site {site!r}")
