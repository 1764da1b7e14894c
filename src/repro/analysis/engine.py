"""Execution-engine selection for the analysis layer.

The golden simulations can run on several engines:

* ``"scalar"`` — one :func:`repro.spice.transient.transient` call per
  configuration (optionally fanned out over a process pool).  This is the
  seed behavior and the default.
* ``"batch"`` — configurations that share a lockstep signature are folded
  into one :func:`repro.spice.batch.batch_transient` call: a single
  vectorized Newton loop advances the whole ensemble at once.
* ``"auto"`` — ``"batch"`` whenever more than one configuration is
  requested, ``"scalar"`` otherwise.

A run's engine is its explicit ``engine=`` argument, else ``"scalar"``:
no process-wide setting or environment variable can change it, so equal
calls run equal engines (the result-cache keys rely on this).

The batch engine degrades gracefully: configurations whose circuits cannot
share a lockstep batch (mixed topologies, unsupported elements, non-finite
element values) silently fall back to the scalar path, so ``"batch"`` is
always safe to request.  Adaptive stepping *is* lockstep-capable: sweeps,
Monte Carlo fleets and campaigns with ``TransientOptions(adaptive=True)`` batch like
fixed-step runs, each instance walking its own accepted-step sequence
behind per-instance masks.
"""

from __future__ import annotations

#: Recognized engine names, in documentation order.
ENGINES = ("auto", "batch", "scalar")


def resolve_engine(engine: str | None = None, n_items: int | None = None) -> str:
    """Resolve an engine request to ``"batch"`` or ``"scalar"``.

    Args:
        engine: explicit request, or None for ``"scalar"``.
        n_items: ensemble size, used to resolve ``"auto"`` (batching a
            single configuration has no lockstep to exploit).  ``None``
            leaves ``"auto"`` resolved toward ``"batch"``.

    Returns:
        ``"batch"`` or ``"scalar"``.  Counting the selection is the
        caller's job, once per request (``simulate_many``,
        ``CampaignRunner.run_specs``).
    """
    if engine is None:
        engine = "scalar"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "auto":
        engine = "scalar" if (n_items is not None and n_items < 2) else "batch"
    return engine
