"""Damped Newton-Raphson solve of one assembled MNA system.

Used by both the DC/IC analyses and every transient time step.  The solver
stamps the (possibly nonlinear) system at each iterate, solves the dense
linearized system, damps oversized updates (the MOSFET subthreshold
exponential punishes full steps from a bad guess), and declares convergence
when the update is small in the usual mixed absolute/relative sense.

Assembly: every element's iterate-independent ``stamp`` lands once per call
in a cached base matrix/RHS (nothing in it can change while ``(mode, t, dt,
method)`` and the element states are fixed); each Newton iterate copies the
base into preallocated work buffers and adds only the nonlinear devices'
``stamp_iterate``.  After convergence the last iterate's context is reused
with ``x`` updated to the converged point — no final re-assembly, because
state commits and current extraction read only ``x``/``dt``/``trap``/states,
never ``A``/``z``.  Circuits with no nonlinear elements collapse to a single
direct solve with an LU factorization cached under ``(mode, dt, method)``
(see :mod:`repro.spice.mna`).
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dgesv as _dgesv

from ..observability import metrics as obs_metrics
from ..observability import trace
from ..observability.trace import NOOP_SPAN
from ..testing.faults import fire as _fire_fault
from .mna import MnaSystem, StampContext, _dense_fallback_solve
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
        telemetry: optional counters record; iteration, assembly and
            LU-cache activity of this solve are added to it.

    Returns:
        (x, ctx): the converged unknowns and a context positioned *at* the
        converged point, ready for state commits and current extraction.

    Raises:
        ConvergenceError: if the iteration budget is exhausted or the
            linearized system is singular beyond recovery.
    """
    system.telemetry = telemetry
    if telemetry is not None:
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
        if system.sparse:
            return _newton_solve_sparse(
                system, mode, t, dt, method, states, x0, gmin,
                max_iter, abstol, reltol, max_update, telemetry, nsp, detailed,
            )

        x = np.array(x0, dtype=float)
        base_A, base_z, work_A, work_z = system.assembly_buffers()

        # Base: stamped once — nothing in it can change across iterates.
        base_ctx = system.context(mode, t, dt, method, states, x, gmin,
                                  buffers=(base_A, base_z))
        with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
            system.assemble_base(base_ctx)

        ctx = system.context(mode, t, dt, method, states, x, gmin,
                             buffers=(work_A, work_z))

        if not system.devices:
            # Purely linear: the Newton map is affine with a constant matrix,
            # so the damped iteration lands exactly on the direct solution;
            # solve once, reusing the cached LU factors when the matrix is
            # unchanged.
            np.copyto(work_A, base_A)
            np.copyto(work_z, base_z)
            with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
                x_new = system.solve_linear_cached((mode, dt, method), work_A, work_z)
            if not np.isfinite(x_new).all():
                raise ConvergenceError(f"non-finite solution while solving at t={t}")
            ctx.x = x_new
            nsp.set_attribute("iterations", 0)
            obs_metrics.observe("repro_newton_iterations_per_solve", 0)
            return x_new, ctx

        iterations = 0
        for _ in range(max_iter):
            iterations += 1
            if telemetry is not None:
                telemetry.newton_iterations += 1
            np.copyto(work_A, base_A)
            np.copyto(work_z, base_z)
            ctx.x = x
            with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
                system.assemble_nonlinear(ctx)
            with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
                # LAPACK directly: numpy's solve wrapper costs more than
                # the factorization at these sizes.  info > 0 is an exactly
                # singular pivot.
                _, _, x_new, info = _dgesv(work_A, work_z)
                if info > 0:
                    x_new, *_ = np.linalg.lstsq(work_A, work_z, rcond=None)
            if not np.isfinite(x_new).all():
                raise ConvergenceError(f"non-finite solution while solving at t={t}")

            dx = x_new - x
            step = float(np.abs(dx).max()) if dx.size else 0.0
            if step > max_update:
                x = x + dx * (max_update / step)
                continue
            x = x_new
            if (np.abs(dx) <= abstol + reltol * np.abs(x)).all():
                # Reuse the last iterate's context: only ``x`` needs to move
                # to the converged point (A/z stay one Newton update behind,
                # which downstream state commits and current reads never
                # consult).
                ctx.x = x
                nsp.set_attribute("iterations", iterations)
                obs_metrics.observe("repro_newton_iterations_per_solve", iterations)
                return x, ctx
        raise ConvergenceError(
            f"Newton failed to converge in {max_iter} iterations at t={t}"
        )


def _newton_solve_sparse(
    system: MnaSystem,
    mode: str,
    t: float,
    dt: float,
    method: str,
    states: dict,
    x0: np.ndarray,
    gmin: float,
    max_iter: int,
    abstol: float,
    reltol: float,
    max_update: float,
    telemetry: SolverTelemetry | None,
    nsp,
    detailed: bool,
) -> tuple[np.ndarray, StampContext]:
    """The Newton loop over the sparse CSC tier.

    Same partition, damping and convergence logic as the dense path;
    only the linear algebra differs: the base assembles once into a
    cached-pattern CSC matrix, each iterate restamps the nonlinear devices
    into their own (tiny) CSC pattern and factors the sum with ``splu`` —
    O(nnz) work on the near-banded matrices MNA produces, against the dense
    lane's O(n^3) per-iterate factorization.  Linear-only circuits reuse
    the cached ``splu`` factors under the dense lane's ``(mode, dt,
    method)`` key.
    """
    x = np.array(x0, dtype=float)
    n = system.size
    base_z = np.empty(n)
    work_z = np.empty(n)

    with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
        base_A, base_ctx = system.assemble_sparse(
            "base", mode, t, dt, method, states, x, gmin, base_z,
        )

    if not system.devices:
        # Purely linear: one direct solve, reusing cached splu factors.
        np.copyto(work_z, base_z)
        with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
            x_new = system.solve_sparse_cached((mode, dt, method), base_A, work_z)
        if not np.isfinite(x_new).all():
            raise ConvergenceError(f"non-finite solution while solving at t={t}")
        base_ctx.x = x_new
        nsp.set_attribute("iterations", 0)
        obs_metrics.observe("repro_newton_iterations_per_solve", 0)
        return x_new, base_ctx

    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        if telemetry is not None:
            telemetry.newton_iterations += 1
        with trace.span("assembly", level="full") if detailed else NOOP_SPAN:
            nl_A, ctx = system.assemble_sparse(
                "nonlinear", mode, t, dt, method, states, x, gmin, work_z,
            )
            work_z += base_z
        with trace.span("lu_solve", level="full") if detailed else NOOP_SPAN:
            A_iter = base_A + nl_A
            lu = system.sparse_factorize(A_iter)
            if lu is not None:
                x_new = lu.solve(work_z)
            else:
                x_new = _dense_fallback_solve(A_iter, work_z)
        if not np.isfinite(x_new).all():
            raise ConvergenceError(f"non-finite solution while solving at t={t}")

        dx = x_new - x
        step = float(np.abs(dx).max()) if dx.size else 0.0
        if step > max_update:
            x = x + dx * (max_update / step)
            continue
        x = x_new
        if (np.abs(dx) <= abstol + reltol * np.abs(x)).all():
            ctx.x = x
            nsp.set_attribute("iterations", iterations)
            obs_metrics.observe("repro_newton_iterations_per_solve", iterations)
            return x, ctx
    raise ConvergenceError(
        f"Newton failed to converge in {max_iter} iterations at t={t}"
    )

