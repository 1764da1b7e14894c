"""Damped Newton-Raphson solve of one assembled MNA system.

Used by both the DC/IC analyses and every transient time step.  The solver
stamps the (possibly nonlinear) system at each iterate, solves the
linearized system, damps oversized updates (the MOSFET subthreshold
exponential punishes full steps from a bad guess), and declares convergence
when the update is small in the usual mixed absolute/relative sense.

The loop owns the damping, convergence, fault and span logic;
:class:`~repro.spice.mna.MnaSystem` owns assembly and the LAPACK solves
behind three steps:
``stamp_base`` once per solve, ``stamp_iterate`` per iterate (the base
plus the nonlinear devices' ``stamp_iterate``, returned as ``(A, z)``), and
``solve``.  Nothing in the base can change while ``(mode, t, dt, method)``
and the element states are fixed, so its right-hand side is stamped once
per call; its matrix depends on ``(mode, dt, method, gmin)`` alone and the
system keeps it across calls while that key repeats.  After
convergence the last iterate's context is reused with ``x`` updated to the
converged point — no final re-assembly, because state commits and current
extraction read only ``x``/``dt``/``trap``/states, never ``A``/``z``.
Circuits with no nonlinear elements collapse to a single direct solve of
the base, with its factorization cached under ``(mode, dt, method)`` (see
:mod:`repro.spice.mna`).

Newton control — the update, the damping cap, the finiteness check and the
convergence test — runs on Python floats (:func:`newton_control`): on the
five-to-fifty-unknown systems of the SSN banks each numpy call costs more
than its arithmetic.  It does the array formulas' IEEE operations in the
same order, so every decision and every damped iterate is bit for bit what
they give.  The float copy of the iterate it keeps is handed to
``stamp_iterate`` and to the converged context, so the devices read their
biases from it; the device stamps accumulate on floats too (see
:mod:`repro.spice.mna`), and numpy keeps the base copy, the one indexed
write of an iterate's device stamps and the LAPACK solve.
"""

from __future__ import annotations

import math
from operator import le, sub

import numpy as np

from ..observability import trace
from ..observability.trace import NOOP_SPAN
from ..testing.faults import fire as _fire_fault
from .mna import MnaSystem, StampContext
from .telemetry import SolverTelemetry

#: Per-iteration cap on the infinity norm of the Newton update; shared with
#: the batched ensemble engine (:mod:`repro.spice.batch`) so both paths damp
#: identically.
DEFAULT_MAX_UPDATE = 0.5


class ConvergenceError(RuntimeError):
    """Newton iteration failed to converge.

    When raised from within a transient run, the engine attaches the run's
    partial :class:`~repro.spice.telemetry.SolverTelemetry` as a
    ``telemetry`` attribute so callers can see how far recovery got.
    """

    telemetry: SolverTelemetry | None = None


def newton_control(
    x: list[float],
    x_new: list[float],
    abstol: float,
    reltol: float,
    max_update: float,
) -> tuple[list[float] | None, float, bool]:
    """Damping and convergence of one Newton update, on Python floats.

    ``x`` is the present iterate and ``x_new`` the linear solve's answer.
    Returns ``(x_next, step, converged)``: ``step`` is the infinity norm of
    the update ``x_new - x``; ``x_next`` is ``x_new``, or the update scaled
    back to ``max_update`` when ``step`` exceeds it (then never
    converged); ``converged`` is the mixed test
    ``|dx| <= abstol + reltol * |x_new|`` on every unknown.  ``x_next`` is
    None when any update is non-finite.  Each float is what the numpy
    expressions ``x_new - x``, ``abs(dx).max()``,
    ``x + dx * (max_update / step)`` and ``abstol + reltol * abs(x_new)``
    give, by the same IEEE operations in the same order.
    """
    dx = list(map(sub, x_new, x))
    adx = list(map(abs, dx))
    # A finite sum of non-negative terms proves every term finite; only a
    # non-finite one (an overflowed sum too) pays the per-unknown check.
    if not math.isfinite(sum(adx)) and not all(map(math.isfinite, adx)):
        return None, math.nan, False
    step = max(adx, default=0.0)
    if step > max_update:
        scale = max_update / step
        return [a + d * scale for a, d in zip(x, dx)], step, False
    return x_new, step, all(map(le, adx, [abstol + reltol * abs(v) for v in x_new]))


def newton_solve(
    system: MnaSystem,
    mode: str,
    t: float,
    dt: float,
    method: str,
    states: dict,
    x0: np.ndarray,
    gmin: float = 1e-12,
    max_iter: int = 100,
    abstol: float = 1e-9,
    reltol: float = 1e-6,
    max_update: float = DEFAULT_MAX_UPDATE,
    telemetry: SolverTelemetry | None = None,
) -> tuple[np.ndarray, StampContext]:
    """Solve the circuit equations for one (mode, t) point.

    Args:
        system: assembled MNA bookkeeping for the circuit.
        mode: "dc", "ic" or "tran" (see :mod:`repro.spice.elements`).
        t: evaluation time for the independent sources.
        dt: time-step length (ignored outside "tran").
        method: "be" or "trap" companion models for this step (ignored
            outside "tran"); the transient engine passes "be" on restart
            steps.
        states: engine-owned per-element state dicts.
        x0: initial guess for the unknown vector.
        gmin: minimum conductance added across nonlinear devices.
        max_iter: Newton iteration budget.
        abstol: absolute convergence tolerance on every unknown.
        reltol: relative convergence tolerance on every unknown.
        max_update: per-iteration cap on the infinity norm of the update.
        telemetry: counters record the iteration, assembly and LU-cache
            activity of this solve are added to (a fresh one when None).

    Returns:
        (x, ctx): the converged unknowns and a context positioned *at* the
        converged point, ready for state commits and current extraction.

    Raises:
        ConvergenceError: if the iteration budget is exhausted or the
            linearized system is singular beyond recovery.
    """
    if telemetry is None:
        telemetry = SolverTelemetry()
    system.telemetry = telemetry
    telemetry.newton_solves += 1
    if _fire_fault("newton") is not None:
        # Deterministic fault injection (repro.testing.faults): report this
        # solve as diverged so the recovery ladders above get exercised.
        raise ConvergenceError(f"injected Newton divergence at t={t}")

    # Per-iteration spans (assembly / lu_solve) exist only at "full" trace
    # detail and are gated on one bool so the disabled-tracing inner loop
    # pays a single module-global read per *solve*, not per iterate.
    tracer = trace.active_tracer()
    detailed = tracer is not None and tracer.wants("full")
    with trace.span("newton_solve", level="newton", mode=mode, t=t) as nsp:
        x = np.array(x0, dtype=float)
        with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
            ctx = system.stamp_base(mode, t, dt, method, states, x, gmin)

        if not system.devices:
            # Purely linear: the Newton map is affine with a constant matrix,
            # so the damped iteration lands exactly on the direct solution;
            # solve once, reusing the cached factors when the matrix is
            # unchanged.
            with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
                x_new = system.solve_base((mode, dt, method))
            if not np.isfinite(x_new).all():
                raise ConvergenceError(f"non-finite solution while solving at t={t}")
            ctx.x = x_new
            nsp.set_attribute("iterations", 0)
            return x_new, ctx

        xs = x.tolist()
        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            telemetry.newton_iterations += 1
            with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
                A, z = system.stamp_iterate(ctx, x, xs)
            with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
                x_new = system.solve(A, z)

            xs, step, converged = newton_control(
                xs, x_new.tolist(), abstol, reltol, max_update)
            if xs is None:
                raise ConvergenceError(f"non-finite solution while solving at t={t}")
            if converged:
                # Reuse the last iterate's context: only ``x`` needs to move
                # to the converged point (A/z stay one Newton update behind,
                # which downstream state commits and current reads never
                # consult).
                ctx.at(x_new, xs)
                nsp.set_attribute("iterations", iterations)
                return x_new, ctx
            x = np.array(xs) if step > max_update else x_new
        raise ConvergenceError(
            f"Newton failed to converge in {max_iter} iterations at t={t}"
        )
