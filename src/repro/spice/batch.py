"""Batched ensemble transient engine: B same-topology circuits in lockstep.

The paper's headline results are *ensembles* of structurally identical SSN
circuits differing only in parameter values — the Fig. 3 driver-count sweep
(one circuit per N, widths and loads scale), the capacitance studies, Monte
Carlo fleets over process spread.  The scalar engine (:mod:`.transient`)
simulates them one at a time; this module simulates the whole ensemble in
one vectorized Newton loop:

* **Stacked elements, shared stamps** — each template element position
  becomes one *stacked* element: a copy of the template whose parameters
  are ``(B,)`` arrays, with companion states kept as ``(B,)`` values in
  the ensemble's state dict.  It stamps through its own
  :mod:`~repro.spice.elements` code into a per-instance context, so the
  batch has no element code of its own: every element's ``stamp`` fills a
  cached ``(B, n, n)`` matrix stack keyed on ``(mode, dt, method-phase,
  gmin)`` and, per solve, a ``(B, n)`` right-hand-side stack.
* **Batched device evaluation** — a stacked MOSFET's model is a
  :class:`~repro.spice.mosfet.MosfetBank` evaluating every instance at
  once (stacked golden-model parameters, analytic vectorized operating
  points, the array twin of the scalar engine's); its ``stamp_iterate``
  restamps the work stack at every Newton iterate.
* **One Newton kernel, two drivers** — :meth:`_Ensemble.newton` runs one
  ``numpy.linalg.solve`` over the whole ``(B, n, n)`` stack per iterate,
  with per-instance damping and a per-instance convergence mask;
  converged instances leave the active set at exactly the iterate the
  scalar loop would stop.  The fixed-step driver calls it with one shared
  ``(t, dt, integrator-phase)``; the adaptive driver calls it with
  per-lane arrays, so every instance walks its own LTE-controlled step
  sequence while the ensemble stays phase-aligned.
* **Paired step doubling** — the adaptive ensemble holds every circuit
  twice (``2B`` lanes sharing one companion history), so one Newton call
  solves a round's full step on lanes ``[0, B)`` together with its first
  half step on lanes ``[B, 2B)``: two calls per round instead of three.
* **Device currents once per run** — MOSFET currents depend only on node
  voltages, which every recorded sample keeps, so they are evaluated once
  at the end over the recorded ``(steps, B)`` samples, in chunks, rather
  than at every step; only the linear elements' currents are sampled per
  step.
* **Scalar fallback** — an instance whose Newton solve fails where the
  scalar engine would need its recovery ladder (the fixed-step batch never
  halves the shared step; the adaptive batch halves per instance down to
  ``min_dt``) leaves the ensemble and is re-simulated by the scalar
  engine, which owns the step-halving/gmin ladder and its telemetry.  The
  instance's record gets ``batch_fallbacks = 1``.

Numerics: both drivers take every step-control decision from the scalar
engine's own step-control functions (:mod:`.transient`, called on floats
here for the shared grid and on ``(B,)`` arrays for per-instance steps)
and reproduce its Newton iteration (same damping cap, same convergence
test, same partials), so batched waveforms agree with the scalar engine to
floating-point noise — the golden-parity suite bounds the difference at
1e-9 V/A.  Results are
bitwise-deterministic: identical inputs produce identical ensembles
regardless of how instances converge or fall back.

Memory: the engine holds ``O(lanes * n^2)`` for the matrix stacks plus
``O(steps * B * n)`` recorded samples; callers batching thousands of
instances should split the ensemble themselves.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from ..observability import trace
from .circuit import Circuit
from .elements import (
    Capacitor,
    CurrentSource,
    Element,
    Inductor,
    MutualInductance,
    Resistor,
    VoltageSource,
)
from .mna import MnaSystem, StampContext
from .mosfet import MosfetBank, MosfetElement
from .solver import DEFAULT_MAX_UPDATE
from .telemetry import SolverTelemetry, record_backend, record_session
from .transient import (
    TransientOptions,
    TransientResult,
    breakpoints_between,
    check_time_span,
    clamp_step,
    fixed_step_regrow,
    halve_step,
    landed,
    lte_norm,
    lte_regrow,
    lte_shrink,
    min_step,
    transient,
)


class BatchIncompatibleError(ValueError):
    """The given circuits (or options) cannot run in lockstep.

    Raised for mixed topologies, mismatched source breakpoints, element
    types the batched engine does not stamp, or non-finite element values.
    Callers route such ensembles to the scalar engine instead.
    """


def lockstep_signature(circuit: Circuit) -> tuple:
    """Structural key under which circuits can share one lockstep batch.

    Two circuits with equal signatures have the same nodes, the same
    element list (types, names, terminals, branch layout), the same
    source breakpoint times and compatible device-model families — they
    differ only in parameter *values*, which is exactly what the stacked
    elements vectorize over.

    Raises:
        BatchIncompatibleError: if the circuit contains an element type
            the batched engine cannot stamp.
    """
    position = {id(el): k for k, el in enumerate(circuit.elements)}
    sig: list = [circuit.num_nodes]
    for el in circuit.elements:
        if isinstance(el, Resistor):
            sig.append(("R", el.name, el.nodes))
        elif isinstance(el, Capacitor):
            sig.append(("C", el.name, el.nodes, el.ic is None))
        elif isinstance(el, Inductor):
            sig.append(("L", el.name, el.nodes))
        elif isinstance(el, MutualInductance):
            sig.append(("K", el.name, position[id(el.la)], position[id(el.lb)]))
        elif isinstance(el, (VoltageSource, CurrentSource)):
            kind = "V" if isinstance(el, VoltageSource) else "I"
            sig.append((kind, el.name, el.nodes, tuple(el.shape.breakpoints())))
        elif isinstance(el, MosfetElement):
            sig.append(("M", el.name, el.nodes, type(el.model).__name__))
        else:
            raise BatchIncompatibleError(
                f"element {el.name!r} ({type(el).__name__}) has no batched stamp"
            )
    return tuple(sig)


def _require_finite(name: str, param: str, values) -> np.ndarray:
    """Validate one element position's parameter bank at construction.

    The scalar element constructors only reject non-*positive* values, so a
    NaN/inf slips through (``nan <= 0`` is False) and would otherwise fail
    deep inside the lockstep Newton loop as an opaque non-finite iterate.
    Catching it here names the offending element, parameter and instance.

    Raises:
        BatchIncompatibleError: if any entry is NaN or infinite.
    """
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise BatchIncompatibleError(
            f"element {name!r}: non-finite {param} in batch instance {bad} "
            f"({arr[bad]!r}); fix the parameter bank before simulating"
        )
    return arr


# -- stacked elements -------------------------------------------------------------
#
# One stacked element per template element position: a shallow copy of the
# template whose parameters are (B,) arrays, stamped through the element's
# own ``stamp``/``stamp_iterate`` by a context that writes per instance.

#: Error-message names of the stacked parameters (see ``Element.params``).
_PARAM_LABELS = {"ohms": "resistance", "farads": "capacitance",
                 "henries": "inductance", "ic": "initial condition",
                 "coupling": "coupling"}


def _stacked_shape(shapes):
    """One source stimulus callable for B per-instance shapes."""
    # Shared-shape fast path: the frozen shape dataclasses compare by
    # value, so identical stimuli are evaluated once per step.
    shared = shapes[0] if all(s == shapes[0] for s in shapes[1:]) else None

    def value(t):
        """Per-instance stimulus at a scalar or per-instance ``(B,)`` time."""
        if isinstance(t, np.ndarray):
            # Adaptive lockstep: every instance sits at its own time.  A
            # shared shape is evaluated over the lanes in one pass; distinct
            # shapes walk the batch.
            if shared is not None:
                return shared.values(t)
            return np.array([s(tb) for s, tb in zip(shapes, t)])
        if shared is not None:
            return shared(t)
        return np.array([s(t) for s in shapes])

    return value


def _stack_elements(circuits: list[Circuit]) -> list[Element]:
    """One stacked element per template element position.

    Every parameter named in ``params`` becomes a validated ``(B,)``
    array; coupled inductances are re-pointed at the stacked inductors,
    source shapes become one stacked stimulus and MOSFET models one
    :class:`~repro.spice.mosfet.MosfetBank`.
    """
    template = circuits[0].elements
    stacked: dict[int, Element] = {}
    for k, el in enumerate(template):
        instances = [c.elements[k] for c in circuits]
        s = copy.copy(el)
        for param in el.params:
            values = [getattr(inst, param) for inst in instances]
            if values[0] is not None:  # a capacitor without an IC
                setattr(s, param, _require_finite(el.name, _PARAM_LABELS[param], values))
        if isinstance(el, Resistor):
            with np.errstate(over="ignore"):
                # A subnormal R overflows its conductance; refuse it here.
                _require_finite(el.name, "conductance", 1.0 / s.ohms)
        elif isinstance(el, (VoltageSource, CurrentSource)):
            s.shape = _stacked_shape([inst.shape for inst in instances])
        elif isinstance(el, MosfetElement):
            s.model = MosfetBank(instances)
        stacked[id(el)] = s
    for s in stacked.values():
        if isinstance(s, MutualInductance):
            s.la, s.lb = stacked[id(s.la)], stacked[id(s.lb)]
            _require_finite(s.name, "mutual inductance", s.mutual)
    return [stacked[id(el)] for el in template]


class _BatchContext(StampContext):
    """Stamp context over B instances: every value is per instance.

    Node voltages are ``x[:, node - 1]`` columns of the ``(B, n)`` iterate,
    matrix writes land in ``A[:, r, c]`` of a ``(B, n, n)`` stack and
    right-hand-side writes in ``z[:, r]``.  ``trap`` is a bool (one phase
    for the ensemble) or a ``(B,)`` mask.  With ``A=None`` matrix writes
    are dropped, so a pass restamps only the right-hand side over a cached
    matrix stack.
    """

    def __init__(self, system: MnaSystem, mode: str, t, dt, trap, states: dict,
                 x: np.ndarray, gmin: float, A, z, ground: np.ndarray):
        super().__init__(system, mode, t, dt, None, states, x, gmin, buffers=(A, z))
        self.trap = trap  # given as a phase (bool or mask), not a method name
        self._ground = ground

    def v(self, node: int):
        if node == 0:
            return self._ground
        return self.x[:, node - 1]

    def branch_value(self, element, k: int = 0):
        return self.x[:, self.branch_row(element, k)].copy()

    def add_node_entry(self, row_node: int, col_node: int, value) -> None:
        if self.A is None or row_node == 0 or col_node == 0:
            return
        self.A[:, row_node - 1, col_node - 1] += value

    def add_entries(self, entries, values) -> None:
        A = self.A
        if A is None:
            return
        for (row, col), k in entries:
            A[:, row, col] += values[k]

    def add_rhs_current(self, frm: int, to: int, i) -> None:
        if frm != 0:
            self.z[:, frm - 1] -= i
        if to != 0:
            self.z[:, to - 1] += i

    def add_branch_kcl(self, a: int, b: int, row: int) -> None:
        if self.A is None:
            return
        if a != 0:
            self.A[:, a - 1, row] += 1.0
        if b != 0:
            self.A[:, b - 1, row] -= 1.0

    def add_branch_voltage(self, row: int, plus: int, minus: int) -> None:
        if self.A is None:
            return
        if plus != 0:
            self.A[:, row, plus - 1] += 1.0
        if minus != 0:
            self.A[:, row, minus - 1] -= 1.0

    def set_branch_entry(self, row: int, col: int, value) -> None:
        if self.A is not None:
            self.A[:, row, col] += value

    def set_branch_rhs(self, row: int, value) -> None:
        self.z[:, row] += value


class _BatchRecorder:
    """Capacity-doubling ``(steps, B, ...)`` sample buffers, one column per instance.

    The fixed-step driver records every instance at every step on one
    shared time grid; the adaptive driver records only the instances that
    accepted, each at its own time and row count (``instances``).  Buffers start
    zeroed and grow zero-padded, so the rows past an instance's last sample
    hold finite values that the deferred device currents can be evaluated
    over harmlessly.
    """

    def __init__(self, batch: int, num_nodes: int, num_currents: int,
                 shared_grid: bool, capacity: int = 256):
        self.count = np.zeros(batch, dtype=int)
        self._times = np.zeros(capacity if shared_grid else (capacity, batch))
        self.nodes = np.zeros((capacity, batch, num_nodes))
        self.currents = np.zeros((capacity, batch, num_currents))

    def _grow(self) -> None:
        def grown(a):
            out = np.zeros((2 * len(a),) + a.shape[1:])
            out[:len(a)] = a
            return out

        self._times, self.nodes, self.currents = (
            grown(self._times), grown(self.nodes), grown(self.currents))

    def append(self, t, node_x: np.ndarray, currents: np.ndarray,
               instances: np.ndarray | None = None) -> None:
        """Record ``node_x``/``currents`` rows at time ``t``: every instance
        at the shared time (``instances`` None), or the masked instances
        at their own ``t[instances]``."""
        if instances is None:
            i = self.count[0]
            if i == len(self._times):
                self._grow()
            self._times[i] = t
            self.nodes[i] = node_x
            self.currents[i] = currents
            self.count += 1
            return
        b = np.flatnonzero(instances)
        rows = self.count[b]
        if rows.size and rows.max() == len(self._times):
            self._grow()
        self._times[rows, b] = t[b]
        self.nodes[rows, b] = node_x[b]
        self.currents[rows, b] = currents[b]
        self.count[b] += 1

    def waveform(self, b: int, names: list[str]):
        """Instance ``b``'s ``(times, nodes, currents-by-name)``."""
        n = self.count[b]
        # The shared grid is one vector for the whole ensemble.
        times = (self._times[:n] if self._times.ndim == 1
                 else np.array(self._times[:n, b]))
        return (times, np.array(self.nodes[:n, b, :]),
                {name: np.array(self.currents[:n, b, j])
                 for j, name in enumerate(names)})


class _SampleView:
    """Node voltages of recorded ``(steps, B, nodes)`` samples, read through
    the stamp-context ``v`` an element's ``current`` uses."""

    def __init__(self, nodes: np.ndarray):
        self._nodes = nodes
        self._ground = np.zeros(nodes.shape[:2])

    def v(self, node: int):
        if node == 0:
            return self._ground
        return self._nodes[:, :, node - 1]


class _Ensemble:
    """One lockstep ensemble: what both drivers share, and the Newton kernel.

    Holds the stacked elements, their companion ``states`` (keyed like the
    scalar engine's, with per-lane values), the cached linear stack, the
    per-iterate work stacks, the per-lane telemetry counters and the
    per-instance ``alive``/``fallback`` masks.  The fixed-step driver passes
    scalar ``t``/``dt``/``trap``; the adaptive driver passes per-lane
    arrays.

    ``copies`` stacks every circuit that many times: lane ``c * B + b``
    simulates instance ``b``.  The adaptive driver uses two copies to solve
    a step-doubling round's full step and first half step in one Newton
    call; :meth:`finish` folds each instance's counters over its lanes.
    """

    #: Per-instance counters, named after the SolverTelemetry fields they
    #: fill.  One linear-base assembly per solve and one device restamp per
    #: iterate (exactly the scalar engine's counting), so base_assemblies
    #: aliases newton_solves and nonlinear_restamps aliases newton_iterations.
    COUNTERS = ("newton_solves", "newton_iterations", "accepted_steps",
                "step_rejections", "step_retries", "lte_rejections",
                "mask_steps")

    #: Recorded steps per deferred device-current evaluation: large enough
    #: to amortize numpy dispatch, small enough that its temporaries stay
    #: far below the recorded samples themselves.
    CURRENT_CHUNK = 128

    def __init__(self, circuits, opts: TransientOptions, tstop: float,
                 dt: float, tstart: float, copies: int = 1):
        self.circuits = circuits
        self.opts = opts
        self.tstop, self.dt, self.tstart = tstop, dt, tstart
        self.batch = batch = len(circuits)
        self.lanes = lanes = copies * batch
        self.system = system = MnaSystem(circuits[0])  # assigns branch layout
        n = self.size = system.size
        self.nn = system.num_node_unknowns
        if n == 0:
            raise BatchIncompatibleError("circuit has no unknowns")
        self.elements = _stack_elements(list(circuits) * copies)
        self.devices = [el for el in self.elements if el.nonlinear]
        self.measured = [el for el in self.elements if hasattr(el, "current")]
        self._sampled = [(j, el) for j, el in enumerate(self.measured)
                         if not el.nonlinear]
        # Device currents depend on node voltages alone, which every
        # recorded sample keeps: they are evaluated once per run over the
        # recorded (steps, B) samples (device_currents), not at every step,
        # through one copy's stacked devices.
        one_copy = self.elements if copies == 1 else _stack_elements(circuits)
        self._deferred = [
            (j, el) for j, el in
            enumerate(el for el in one_copy if hasattr(el, "current"))
            if el.nonlinear]
        self.states: dict = {}

        # Vectorized counters, folded into SolverTelemetry records by
        # finish(): python-object updates per step would cost more than the
        # solves.
        self.count = {name: np.zeros(lanes, dtype=int) for name in self.COUNTERS}
        self.alive = np.ones(batch, dtype=bool)      # still simulated in lockstep
        self.fallback = np.zeros(batch, dtype=bool)  # needs the scalar engine

        self._ground = np.zeros(lanes)
        self._lin_A = np.zeros((lanes, n, n))
        self._lin_z = np.zeros((lanes, n))
        self._lin_key: tuple | None = None
        self._work_A = np.empty((lanes, n, n))
        self._work_z = np.empty((lanes, n))
        self._identity = np.eye(n)
        self._currents = np.zeros((lanes, len(self.measured)))

    def recorder(self, shared_grid: bool) -> _BatchRecorder:
        return _BatchRecorder(self.batch, self.nn, len(self.measured), shared_grid)

    def drop(self, failed: np.ndarray) -> None:
        """Hand the ``failed`` instances to the scalar engine."""
        self.alive[failed] = False
        self.fallback[failed] = True

    def tally(self, name: str, mask: np.ndarray) -> None:
        """Add one to counter ``name`` for every lane in ``mask`` (a mask
        shorter than the lanes covers the first copy)."""
        count = self.count[name][:len(mask)]
        np.add(count, mask, out=count)

    def context(self, mode: str, t, dt, trap, x: np.ndarray, gmin: float = 0.0,
                A=None, z=None) -> _BatchContext:
        return _BatchContext(self.system, mode, t, dt, trap, self.states, x,
                             gmin, A, z, self._ground)

    # -- companion state ------------------------------------------------------------

    def init_state(self, ctx: _BatchContext) -> None:
        for el in self.elements:
            el.init_state(ctx)

    def commit(self, ctx: _BatchContext) -> None:
        for el in self.elements:
            el.commit(ctx)

    def snapshot(self) -> dict:
        """The state values as they stand (commits replace, never mutate)."""
        return {el: dict(state) for el, state in self.states.items()}

    def restore(self, snap: dict, mask: np.ndarray) -> None:
        """Put the ``mask`` lanes' state back to ``snap``."""
        for el, saved in snap.items():
            state = self.states[el]
            for key, old in saved.items():
                state[key] = np.where(mask, old, state[key])

    def sample_currents(self, ctx: _BatchContext) -> np.ndarray:
        """``(lanes, measured)`` element currents at ``ctx.x`` (a reused
        buffer); the device columns are left to :meth:`device_currents`."""
        for j, el in self._sampled:
            self._currents[:, j] = el.current(ctx)
        return self._currents

    def device_currents(self, recorder: _BatchRecorder) -> None:
        """Fill the recorder's device-current columns from its node samples.

        The same element ``current`` the per-step sampling would call, over
        ``(steps, B)`` bias blocks: the device arithmetic is elementwise, so
        every sample gets the bits it would have got at its own step.
        """
        if not self._deferred:
            return
        steps = int(recorder.count.max())
        for start in range(0, steps, self.CURRENT_CHUNK):
            stop = min(start + self.CURRENT_CHUNK, steps)
            view = _SampleView(recorder.nodes[start:stop])
            for j, el in self._deferred:
                recorder.currents[start:stop, :, j] = el.current(view)

    # -- assembly and solve ---------------------------------------------------------

    def _linear_stack(self, mode: str, t, dt, trap, gmin: float, x: np.ndarray):
        """Every element's ``stamp``, restamping the matrix only on a new key.

        The matrix is constant while (mode, dt, trap-phase, gmin) are.
        Per-lane steps and phases enter the key by value, so the stack is
        also reused whenever an adaptive round repeats them (e.g. every
        instance regrowing at the cap); otherwise only the right-hand side
        is restamped.
        """
        key = (mode, np.asarray(dt).tobytes(), np.asarray(trap).tobytes(), gmin)
        A = None
        if key != self._lin_key:
            A = self._lin_A
            A[:] = 0.0
            self._lin_key = key
        self._lin_z[:] = 0.0
        ctx = self.context(mode, t, dt, trap, x, gmin, A, self._lin_z)
        for el in self.elements:
            el.stamp(ctx)
        return self._lin_A, self._lin_z

    def _solve(self, A, z, ctx: _BatchContext, off: np.ndarray | None) -> np.ndarray:
        """Solve the linear stack plus the device stamps at ``ctx.x``.

        ``ctx`` writes into the work stacks this copies ``A``/``z`` to.  The
        ``off`` rows (None: no row is off) may hold garbage stamps, so they
        are swapped for a trivial identity system that keeps the stack
        solvable.
        """
        np.copyto(self._work_A, A)
        np.copyto(self._work_z, z)
        for el in self.devices:
            el.stamp_iterate(ctx)
        if off is not None:
            self._work_A[off] = self._identity
            self._work_z[off] = 0.0
        return _solve_stack(self._work_A, self._work_z)

    def newton(self, mode: str, t, dt, trap, gmin: float, mask: np.ndarray,
               x0: np.ndarray):
        """One lockstep Newton solve over the ``mask`` lanes.

        Returns ``(x, failed)``: rows outside ``mask`` keep ``x0``'s values,
        ``failed`` flags masked lanes whose solve did not converge
        (iteration budget exhausted or a non-finite iterate) — the
        per-instance analogue of the scalar engine's ConvergenceError.

        The whole stack is computed every iterate and the masks gate only
        the bookkeeping (which rows accept the update, which count an
        iteration): at ensemble sizes where numpy's per-operation dispatch
        dominates, redundant flops on settled rows are cheaper than
        gather/scatter index machinery.  Converged lanes leave the active
        set at exactly the iterate the scalar loop would stop.
        """
        x = x0.copy()
        failed = np.zeros(self.lanes, dtype=bool)
        if not mask.any():
            return x, failed
        opts = self.opts
        self.tally("newton_solves", mask)
        A, z = self._linear_stack(mode, t, dt, trap, gmin, x)
        ctx = self.context(mode, t, dt, trap, x, gmin, self._work_A, self._work_z)
        off = ~mask
        if not off.any():
            off = None

        if not self.devices:
            # Purely linear: the Newton map is affine, one direct batched
            # solve lands on the solution (iteration count stays 0, matching
            # the scalar direct-solve path).
            xn = self._solve(A, z, ctx, off)
            finite = np.isfinite(xn).all(axis=1)
            return np.where((mask & finite)[:, None], xn, x), mask & ~finite

        active = mask.copy()
        for _ in range(opts.max_newton):
            self.tally("newton_iterations", active)
            ctx.x = x
            xn = self._solve(A, z, ctx, off)
            adx = np.abs(xn - x)
            step = adx.max(axis=1)
            largest = step.max()
            if not np.isfinite(largest):
                # A non-finite iterate (x itself is always finite) shows as
                # a non-finite row update: fail those lanes and neutralize
                # their rows so the update arithmetic below stays
                # warning-free (their x must not move anyway).
                finite = np.isfinite(step)
                failed |= active & ~finite
                active &= finite
                if not active.any():
                    return x, failed
                off = ~mask | failed
                xn = np.where(finite[:, None], xn, x)
                adx = np.abs(xn - x)
                step = adx.max(axis=1)
                largest = step.max()
            if largest > DEFAULT_MAX_UPDATE:
                damped = step > DEFAULT_MAX_UPDATE
                scale = DEFAULT_MAX_UPDATE / np.maximum(step, DEFAULT_MAX_UPDATE)
                moved = np.where(damped[:, None], x + (xn - x) * scale[:, None], xn)
                x = np.where(active[:, None], moved, x)
            else:
                damped = False
                x = np.where(active[:, None], xn, x)
            # Same test as the scalar loop: damped iterations never declare
            # convergence; undamped ones converge when the update is small.
            conv = (adx <= opts.abstol + opts.reltol * np.abs(xn)).all(axis=1)
            active &= damped | ~conv
            if not active.any():
                return x, failed
        # Iteration budget exhausted: the remaining active lanes would need
        # the recovery ladder.
        return x, failed | active

    def finish(self, span, recorder: _BatchRecorder, ic_s: float,
               stepping_s: float, wall_start: float) -> list[TransientResult]:
        """Per-instance results: lockstep survivors, then scalar re-runs.

        The recorder's device currents are evaluated here, once for the
        run.  The shared wall clock is split evenly across instance records
        so that aggregated telemetry still sums to real elapsed time.
        """
        batch = self.batch
        self.device_currents(recorder)
        names = [el.name for el in self.measured]
        shares = {"ic": ic_s / batch, "stepping": stepping_s / batch,
                  "total": (time.perf_counter() - wall_start) / batch}
        folded = {name: c.reshape(-1, batch).sum(axis=0)
                  for name, c in self.count.items()}
        results: list[TransientResult | None] = [None] * batch
        for b in np.flatnonzero(self.alive):
            counts = {name: int(c[b]) for name, c in folded.items()}
            tel = SolverTelemetry(**counts,
                                  base_assemblies=counts["newton_solves"],
                                  nonlinear_restamps=counts["newton_iterations"])
            record_backend(tel, "dense_lu")
            for phase, seconds in shares.items():
                tel.add_phase_seconds(phase, seconds)
            record_session(tel)
            results[b] = TransientResult(self.circuits[b],
                                         *recorder.waveform(b, names),
                                         telemetry=tel)

        span.set_attribute("fallbacks", int(self.fallback.sum()))
        for b in np.flatnonzero(self.fallback):
            # This instance needed the recovery ladder (or its terminal
            # ConvergenceError): the scalar engine owns step halving, gmin
            # stepping and their telemetry.  Its partial batched work is
            # discarded (and not attributed).
            result = transient(self.circuits[b], self.tstop, self.dt,
                               tstart=self.tstart, options=self.opts)
            result.telemetry.batch_fallbacks += 1
            record_session(SolverTelemetry(batch_fallbacks=1))
            results[b] = result
        return results


def batch_transient(
    circuits,
    tstop: float,
    dt: float,
    tstart: float = 0.0,
    options: TransientOptions | None = None,
) -> list[TransientResult]:
    """Simulate an ensemble of same-topology circuits in lockstep.

    Args:
        circuits: the ensemble (not mutated); all members must share one
            :func:`lockstep_signature` — same topology, element names and
            source breakpoints, differing only in parameter values.
        tstop: shared end time in seconds.
        dt: shared base time step in seconds.
        tstart: shared start time.
        options: engine knobs; ``adaptive`` routes to the per-instance
            LTE-masked lockstep (each instance walks its *own* accepted
            step sequence, bit-identical to the scalar controller's).

    Returns:
        One :class:`~repro.spice.transient.TransientResult` per circuit, in
        input order, each with its own per-instance telemetry record.
        Instances that needed the step-halving/gmin recovery ladder are
        transparently re-run on the scalar engine (their telemetry carries
        ``batch_fallbacks == 1``).

    Raises:
        BatchIncompatibleError: mixed topologies or non-finite element
            values.
        ConvergenceError: an instance failed even on the scalar ladder.
    """
    check_time_span(tstart, tstop, dt)
    opts = options or TransientOptions()

    circuits = list(circuits)
    if not circuits:
        return []
    sig = lockstep_signature(circuits[0])
    for c in circuits[1:]:
        if lockstep_signature(c) != sig:
            raise BatchIncompatibleError(
                f"circuit {c.title!r} does not share the ensemble topology"
            )

    # The adaptive driver solves each round's step-doubling pair in one
    # Newton call over two copies of the ensemble.
    ens = _Ensemble(circuits, opts, tstop, dt, tstart,
                    copies=2 if opts.adaptive else 1)
    wall_start = time.perf_counter()
    drive = _adaptive_lockstep if opts.adaptive else _fixed_lockstep
    attrs = {"adaptive": True} if opts.adaptive else {}
    # The span carries the whole-ensemble run; with tracing on, the
    # ic/stepping phase shares derive from the sub-span clocks
    # (trace.elapsed), otherwise from perf-counter anchors.
    with trace.span("batch_transient", batch=len(circuits), tstop=tstop,
                    dt=dt, **attrs) as span:
        recorder, ic_s, stepping_s = drive(ens, wall_start)
        return ens.finish(span, recorder, ic_s, stepping_s, wall_start)


def _fixed_lockstep(ens: _Ensemble, wall_start: float):
    """Shared-grid lockstep: the scalar engine's fixed step sequence.

    The step sequence comes from the scalar engine's step-control
    functions; an instance whose Newton solve fails leaves the ensemble
    (the batch never halves the shared step).  Returns
    ``(recorder, ic_seconds, stepping_seconds)`` for :meth:`_Ensemble.finish`.
    """
    opts, dt, tstart, tstop = ens.opts, ens.dt, ens.tstart, ens.tstop
    nn = ens.nn
    x = np.zeros((ens.batch, ens.size))

    # -- t=0 consistency solve -------------------------------------------------------
    with trace.span("ic") as ic_sp:
        x, failed = ens.newton("ic", tstart, dt, False, max(opts.gmin, 1e-9),
                               ens.alive, x)
        ens.drop(failed)
    ic_s = trace.elapsed(ic_sp, wall_start)
    ic_ctx = ens.context("ic", tstart, dt, False, x)
    ens.init_state(ic_ctx)

    recorder = ens.recorder(shared_grid=True)
    recorder.append(tstart, x[:, :nn], ens.sample_currents(ic_ctx))

    t = tstart
    h = dt
    bp_iter = iter(breakpoints_between(ens.circuits[0], tstart, tstop))
    next_bp = next(bp_iter)
    first_step = True
    stepping_start = time.perf_counter()

    with trace.span("stepping") as step_sp:
        while not landed(t, tstop) and ens.alive.any():
            h_step = clamp_step(h, t, next_bp)
            trap = opts.method == "trap" and not first_step
            x, failed = ens.newton("tran", t + h_step, h_step, trap, opts.gmin,
                                   ens.alive, x)
            ens.drop(failed)
            # Record, then commit state (commit consumes the pre-step state).
            step_ctx = ens.context("tran", t + h_step, h_step, trap, x)
            currents = ens.sample_currents(step_ctx)
            ens.commit(step_ctx)
            first_step = False

            t += h_step
            ens.tally("accepted_steps", ens.alive)
            recorder.append(t, x[:, :nn], currents)

            if landed(t, next_bp):
                # Source slope discontinuity: restart the integrator with a
                # backward-Euler step (see the scalar engine).
                first_step = True
                next_bp = next(bp_iter, tstop)
            h = fixed_step_regrow(h_step, dt)
    stepping_s = trace.elapsed(step_sp, stepping_start)
    return recorder, ic_s, stepping_s


def _adaptive_lockstep(ens: _Ensemble, wall_start: float):
    """LTE-controlled lockstep: every instance walks its own step sequence.

    The fixed-step lockstep shares one grid across the ensemble; the
    adaptive controller cannot, because each instance's local truncation
    error drives its own step sizes.  Instead of serializing, the engine
    keeps the ensemble *phase-aligned*: every outer round runs step
    doubling — one full ``h`` step against two ``h/2`` steps — for all
    unfinished instances at once, each at its **own** ``(t, h,
    integrator-phase)`` carried as per-lane arrays.  A participation mask
    gates which rows of each vectorized solve are real; masked-out lanes
    get identity rows and their results are discarded.

    Paired step doubling: the ensemble holds every circuit twice (see
    :class:`_Ensemble`), and both copies share one companion history —
    every init, commit and restore gets the same inputs on both.  The full
    step and the first half step start from the same state, so one Newton
    call solves them together, the full step on lanes ``[0, B)`` and the
    first half step on lanes ``[B, 2B)``; the second half step then runs on
    lanes ``[B, 2B)`` alone.  Two Newton calls per round instead of three.

    Parity contract: the controller is the scalar engine's step-control
    functions called on per-lane arrays, over the same companion
    arithmetic per lane (``np.where`` blends preserve the selected branch
    bitwise) and the same Newton damping and convergence tests.  Each
    instance therefore accepts and rejects *exactly* the steps the scalar
    engine would, with identical telemetry counts
    (``newton_solves``/``iterations``, ``accepted_steps``,
    ``step_rejections``/``retries``, ``lte_rejections``): the scalar
    controller never takes the half step after a failed full step, so that
    lane's half-step effort is not counted.  ``mask_steps`` additionally
    counts the instance's pending rounds — a batch-only diagnostic of
    lockstep efficiency.

    Newton failure handling is per instance: a failing lane halves its own
    step without disturbing its neighbours; only a lane that bottoms out
    below ``min_dt`` leaves the ensemble for the scalar engine (which owns
    the terminal ConvergenceError and its telemetry; the record carries
    ``batch_fallbacks = 1`` like the fixed path's ladder exits).
    """
    opts, dt, tstart, tstop = ens.opts, ens.dt, ens.tstart, ens.tstop
    batch = ens.batch
    nn = ens.nn
    alive = ens.alive
    method_trap = opts.method == "trap"
    min_h = min_step(opts, dt)
    x_acc = np.zeros((batch, ens.size))

    def lanes(first, second):
        """Lanes ``[0, B)`` from ``first``, lanes ``[B, 2B)`` from ``second``."""
        return np.concatenate((first, second))

    def pair(a):
        """A per-instance array on both copies' lanes."""
        return lanes(a, a)

    idle = np.zeros(batch, dtype=bool)

    # -- t=0 consistency solve (first copy; init_state fills both) -----------------
    no_trap = pair(idle)
    t_i = np.full(batch, tstart)
    h_i = np.full(batch, dt)
    with trace.span("ic") as ic_sp:
        x_ic, ic_failed = ens.newton("ic", pair(t_i), pair(h_i), no_trap,
                                     max(opts.gmin, 1e-9), lanes(alive, idle),
                                     pair(x_acc))
        x_acc = x_ic[:batch]
        ens.drop(ic_failed[:batch])
    ic_s = trace.elapsed(ic_sp, wall_start)
    ic_ctx = ens.context("ic", pair(t_i), pair(h_i), no_trap, pair(x_acc))
    ens.init_state(ic_ctx)

    bps = np.array(breakpoints_between(ens.circuits[0], tstart, tstop))
    bp_idx = np.zeros(batch, dtype=int)
    last_bp = len(bps) - 1

    recorder = ens.recorder(shared_grid=False)
    recorder.append(t_i, x_acc[:, :nn], ens.sample_currents(ic_ctx)[:batch],
                    instances=alive)

    # Per-instance integrator state (t_i, h_i above).  A pending
    # reject-retry overrides the breakpoint clamp: the scalar controller
    # does not re-clamp a halved/shrunk step within the retry loop.  NaN
    # means "no retry pending".
    retry_h = np.full(batch, np.nan)
    first_step = np.ones(batch, dtype=bool)
    # The second half step always runs on post-commit history, so it takes
    # opts.method (as in the scalar engine).
    trap_h2 = pair(np.full(batch, method_trap))
    effort = ("newton_solves", "newton_iterations")
    stepping_start = time.perf_counter()

    with trace.span("stepping") as step_sp:
        while True:
            pending = alive & ~landed(t_i, tstop)
            if not pending.any():
                break
            ens.tally("mask_steps", pending)
            h_step = np.where(np.isnan(retry_h),
                              clamp_step(h_i, t_i, bps[bp_idx]), retry_h)
            # Finished/fallen-back lanes ride along with a harmless dummy
            # step (their results are never consumed; the dummy keeps the
            # vectorized companion math division-safe).
            h_step = np.where(pending, h_step, 1.0)
            half = h_step / 2.0
            trap_big = pair(pending & ~first_step if method_trap else idle)

            # The full step and the first half step, in one solve.
            spent = {name: ens.count[name][batch:].copy() for name in effort}
            x_pair, fail_pair = ens.newton(
                "tran", lanes(t_i + h_step, t_i + half), lanes(h_step, half),
                trap_big, opts.gmin, pair(pending), pair(x_acc))
            x_big, x_mid = x_pair[:batch], x_pair[batch:]
            fail_big = fail_pair[:batch]
            for name, before in spent.items():
                ens.count[name][batch:][fail_big] = before[fail_big]
            ok = pending & ~fail_big & ~fail_pair[batch:]

            # Mid-point commit for lanes still in flight; the snapshot
            # restores every other lane afterwards (commit is all-lane
            # vectorized math) and, at the end of the round, every lane that
            # did not accept.
            snap = ens.snapshot()
            ens.commit(ens.context("tran", pair(t_i + half), pair(half),
                                   trap_big, pair(x_mid)))
            ens.restore(snap, pair(~ok))

            x_fine, fail_h2 = ens.newton(
                "tran", pair(t_i + h_step), pair(half), trap_h2, opts.gmin,
                lanes(idle, ok), x_pair)
            x_new = x_fine[batch:]
            ok = ok & ~fail_h2[batch:]

            # Newton failures: per-instance step halving, scalar-engine
            # fallback once a lane's ladder bottoms out.
            nfail = pending & ~ok
            if nfail.any():
                ens.tally("step_rejections", nfail)
                h_next, dead = halve_step(h_step, min_h)
                dead &= nfail
                ens.drop(dead)
                retrying = nfail & ~dead
                ens.tally("step_retries", retrying)
                retry_h[retrying] = h_next[retrying]

            # LTE control, the scalar controller's decisions per lane.
            err = lte_norm(x_big, x_new, nn, opts)
            lte_bad = ok & (err > 1.0)
            ens.tally("lte_rejections", lte_bad)
            h_shrunk, at_floor = lte_shrink(h_step, err, min_h)
            # Accept-at-the-floor: a shrink clamped to min_h is accepted
            # with the *old* step's solutions but advances t by the *new*
            # (floored) step — exactly the scalar loop's reassign-then-break.
            floor_acc = lte_bad & at_floor
            accepted = (ok & ~lte_bad) | floor_acc
            lte_retry = lte_bad & ~floor_acc
            retry_h[lte_retry] = h_shrunk[lte_retry]

            # Currents sample the pre-commit (mid-committed) history, then
            # the final half-step commit lands; every lane that did not
            # accept is rolled back to its pre-round state.
            new_ctx = ens.context("tran", pair(t_i + h_step), pair(half),
                                  trap_h2, pair(x_new))
            cur_block = ens.sample_currents(new_ctx)[:batch]
            ens.commit(new_ctx)
            ens.restore(snap, pair(~accepted))

            if accepted.any():
                # Regrowth from the rejecting err on floor-accepts, from the
                # accepted err otherwise, as in the scalar loop.
                h_used = np.where(floor_acc, h_shrunk, h_step)
                t_i = np.where(accepted, t_i + h_used, t_i)
                x_acc = np.where(accepted[:, None], x_new, x_acc)
                ens.tally("accepted_steps", accepted)
                h_i = np.where(accepted, lte_regrow(h_used, err, dt, opts), h_i)
                retry_h[accepted] = np.nan
                first_step = first_step & ~accepted
                hit = accepted & landed(t_i, bps[bp_idx])
                if hit.any():
                    # Source slope discontinuity: restart the lane's
                    # integrator with a backward-Euler step.
                    first_step = first_step | hit
                    bp_idx = np.where(hit, np.minimum(bp_idx + 1, last_bp), bp_idx)
                recorder.append(t_i, x_new[:, :nn], cur_block, instances=accepted)
    stepping_s = trace.elapsed(step_sp, stepping_start)

    return recorder, ic_s, stepping_s


def _solve_stack(A: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Batched dense solve with the scalar engine's singular fallback.

    ``numpy.linalg.solve`` rejects the whole stack when any one matrix is
    singular; the scalar path degrades that instance to least squares
    (floating subcircuits), so mirror it per instance on failure.  Instead
    of serializing the entire batch, one vectorized ``slogdet`` over the
    stack screens the singular lanes up front: the solvable majority gets a
    single batched re-solve and only the degenerate few pay the per-lane
    least-squares path — one bad instance no longer turns the whole
    ensemble's iterate into B sequential LAPACK calls.
    """
    try:
        # NumPy >= 2.0 treats a 2-D ``b`` as one matrix, not a vector
        # stack, so carry an explicit trailing axis.
        return np.linalg.solve(A, z[..., None])[..., 0]
    except np.linalg.LinAlgError:
        sign, _ = np.linalg.slogdet(A)
        good = sign != 0
        out = np.empty_like(z)
        if good.any():
            try:
                out[good] = np.linalg.solve(A[good], z[good, :, None])[..., 0]
            except np.linalg.LinAlgError:
                # The determinant screen can miss a pivot-level breakdown;
                # only then serialize the screened lanes.
                for k in np.flatnonzero(good):
                    try:
                        out[k] = np.linalg.solve(A[k], z[k])
                    except np.linalg.LinAlgError:
                        out[k], *_ = np.linalg.lstsq(A[k], z[k], rcond=None)
        for k in np.flatnonzero(~good):
            out[k], *_ = np.linalg.lstsq(A[k], z[k], rcond=None)
        return out
