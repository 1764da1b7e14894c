"""Execution-engine selection for the analysis layer.

The golden simulations can run on several engines:

* ``"scalar"`` — one :func:`repro.spice.transient.transient` call per
  configuration (optionally fanned out over a process pool).  This is the
  seed behavior and the default.
* ``"batch"`` — configurations that share a lockstep signature are folded
  into one :func:`repro.spice.batch.batch_transient` call: a single
  vectorized Newton loop advances the whole ensemble at once.
* ``"surrogate"`` — in-region queries answered in microseconds by fitted
  closed-form models (:mod:`repro.surrogate`) before any MNA assembly;
  out-of-region, bound-violating or uncovered queries fall through to the
  full engines with the decision recorded in telemetry.
* ``"auto"`` — ``"batch"`` whenever more than one configuration is
  requested, ``"scalar"`` otherwise.  ``"auto"`` never resolves to the
  surrogate tier: an approximate answer path must be opted into
  explicitly.

Selection precedence, highest first: an explicit ``engine=`` argument, the
process-wide default installed with :func:`set_default_engine` (the CLI's
``--engine`` flag uses this), the ``REPRO_ENGINE`` environment variable,
and finally ``"scalar"``.

The batch engine degrades gracefully: configurations whose circuits cannot
share a lockstep batch (mixed topologies, unsupported elements, non-finite
element values) silently fall back to the scalar path, so ``"batch"`` is
always safe to request.  Adaptive stepping *is* lockstep-capable: sweeps,
Monte Carlo fleets and campaigns with ``TransientOptions(adaptive=True)`` batch like
fixed-step runs, each instance walking its own accepted-step sequence
behind per-instance masks.
"""

from __future__ import annotations

import os

#: Recognized engine names, in documentation order.
ENGINES = ("auto", "batch", "scalar", "surrogate")

#: Environment variable consulted when no explicit engine is given.
ENGINE_ENV = "REPRO_ENGINE"

_default_engine: str | None = None


def default_engine() -> str:
    """The engine a run with no explicit ``engine=`` argument would consult.

    Pure read of the process-wide default / ``REPRO_ENGINE`` precedence
    chain — no ``"auto"`` resolution, no validation (an invalid
    environment value is returned verbatim and rejected later by
    :func:`resolve_engine`, exactly where it is consumed).  Result-cache
    keys fold this in so flipping the default between calls can never
    return a stale-keyed hit.
    """
    engine = _default_engine
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "scalar"
    return engine


def set_default_engine(engine: str | None) -> None:
    """Install a process-wide default engine (``None`` clears it).

    Sits between explicit ``engine=`` arguments and the ``REPRO_ENGINE``
    environment variable in precedence; the CLI's ``--engine`` flag is a
    thin wrapper around this.
    """
    global _default_engine
    if engine is not None and engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    _default_engine = engine


def resolve_engine(engine: str | None = None, n_items: int | None = None) -> str:
    """Resolve an engine request to ``"surrogate"``, ``"batch"`` or ``"scalar"``.

    Args:
        engine: explicit request, or None to consult the process default
            and then ``REPRO_ENGINE``.
        n_items: ensemble size, used to resolve ``"auto"`` (batching a
            single configuration has no lockstep to exploit).  ``None``
            leaves ``"auto"`` resolved toward ``"batch"``.

    Returns:
        ``"surrogate"``, ``"batch"`` or ``"scalar"``.  ``"auto"`` never
        resolves to ``"surrogate"``; the approximate tier must be asked
        for by name.  Counting the selection is the caller's job, once
        per request (``simulate_many``, ``CampaignRunner.run_specs``).
    """
    if engine is None:
        engine = default_engine()
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "auto":
        engine = "scalar" if (n_items is not None and n_items < 2) else "batch"
    return engine
