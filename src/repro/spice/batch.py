"""Batched ensemble transient engine: B same-topology circuits in lockstep.

The paper's headline results are *ensembles* of structurally identical SSN
circuits differing only in parameter values — the Fig. 3 driver-count sweep
(one circuit per N, widths and loads scale), the capacitance studies, Monte
Carlo fleets over process spread.  The scalar engine (:mod:`.transient`)
simulates them one at a time; this module simulates the whole ensemble in
one vectorized Newton loop:

* **Batched MNA assembly** — element *banks* (one per template element
  position, holding that element's B per-instance values and companion
  states as ``(B,)`` arrays) stamp the linear part into a cached
  ``(B, n, n)`` matrix stack keyed on ``(mode, dt, method-phase)`` and the
  per-step right-hand sides into a ``(B, n)`` stack.
* **Batched device evaluation** — every MOSFET position is evaluated for
  all instances at once through :class:`~repro.spice.mosfet.MosfetBank`
  (stacked golden-model parameters, vectorized finite-difference operating
  points with the scalar engine's step).
* **One Newton kernel, two drivers** — :meth:`_Ensemble.newton` runs one
  ``numpy.linalg.solve`` over the whole ``(B, n, n)`` stack per iterate,
  with per-instance damping and a per-instance convergence mask;
  converged instances leave the active set at exactly the iterate the
  scalar loop would stop.  The fixed-step driver calls it with one shared
  ``(t, dt, integrator-phase)``; the adaptive driver calls it with
  per-instance ``(B,)`` arrays, so every instance walks its own
  LTE-controlled step sequence while the ensemble stays phase-aligned.
* **Scalar fallback** — an instance whose Newton solve fails where the
  scalar engine would need its recovery ladder (the fixed-step batch never
  halves the shared step; the adaptive batch halves per instance down to
  ``min_dt``) leaves the ensemble and is re-simulated by the scalar
  engine, which owns the step-halving/gmin ladder and its telemetry.  The
  instance's record gets ``batch_fallbacks = 1``.

Numerics: both drivers reproduce the scalar engine's step sequence
(breakpoint landing, post-breakpoint BE restart, step regrowth, and on the
adaptive path the LTE accept/reject decisions) and Newton iteration (same
damping cap, same convergence test, same finite-difference partials step),
so batched waveforms agree with the scalar engine to floating-point noise —
the golden-parity suite bounds the difference at 1e-9 V/A.  Results are
bitwise-deterministic: identical inputs produce identical ensembles
regardless of how instances converge or fall back.

Memory: the engine holds ``O(B * n^2)`` for the matrix stacks plus
``O(steps * B * n)`` recorded samples; callers batching thousands of
instances should split the ensemble themselves.
"""

from __future__ import annotations

import time

import numpy as np

from ..observability import trace
from .circuit import Circuit
from .elements import (
    _IC_FORCE_CONDUCTANCE,
    _IC_INDUCTOR_R,
    Capacitor,
    CurrentSource,
    Inductor,
    MutualInductance,
    Resistor,
    VoltageSource,
)
from .mna import MnaSystem
from .mosfet import MosfetBank, MosfetElement
from .solver import DEFAULT_MAX_UPDATE
from .telemetry import SolverTelemetry, record_backend, record_session
from .transient import (
    _MIN_STEP_DIVISOR,
    _SampleRecorder,
    TransientOptions,
    TransientResult,
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
    differ only in parameter *values*, which is exactly what the banks
    vectorize over.

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


# -- element banks ------------------------------------------------------------------
#
# One bank per template element position.  Matrix scatters write A[:, r, c]
# with 0-based unknown indices (ground rows/columns eliminated); the sign
# conventions mirror StampContext exactly.


def _v(x: np.ndarray, node: int) -> np.ndarray:
    """Per-instance voltage of one node; ground is 0 V.  ``x`` is (B, n)."""
    if node == 0:
        return np.zeros(len(x))
    return x[:, node - 1]


def _add(A: np.ndarray, r: int, c: int, value) -> None:
    """A[:, r-1, c-1] += value for two node ids, skipping ground."""
    if r == 0 or c == 0:
        return
    A[:, r - 1, c - 1] += value


def _add_conductance(A: np.ndarray, a: int, b: int, g) -> None:
    _add(A, a, a, g)
    _add(A, b, b, g)
    _add(A, a, b, -g)
    _add(A, b, a, -g)


def _add_rhs_current(z: np.ndarray, frm: int, to: int, i) -> None:
    """A current ``i`` forced from node ``frm`` to node ``to``; z is (B, n)."""
    if frm != 0:
        z[:, frm - 1] -= i
    if to != 0:
        z[:, to - 1] += i


class _Bank:
    """Base bank: B aligned instances of one template element position.

    ``dt`` and ``trap`` arguments are scalars on the fixed-step lockstep
    path (every instance shares the grid) and per-instance ``(B,)`` arrays
    on the adaptive path, where each instance carries its own step and
    integrator phase; the companion formulas select per instance with the
    same float operations either way, so a lane's values are bitwise those
    the scalar engine would produce.
    """

    #: Whether the underlying element family records a current waveform.
    has_current = False
    #: Whether the bank restamps at every Newton iterate (devices only).
    nonlinear = False

    def __init__(self, elements, system: MnaSystem):
        self.elements = elements
        self.name = elements[0].name
        self.nodes = elements[0].nodes
        self.system = system

    def stamp_matrix(self, A, mode: str, dt, trap) -> None:
        """Linear matrix contribution (constant across Newton iterates)."""

    def stamp_rhs(self, z, mode: str, t, dt, trap) -> None:
        """Per-step right-hand-side contribution."""

    def init_state(self, x) -> None:
        """Initialize companion state from the (B, n) IC solution."""

    def commit(self, x, dt, trap) -> None:
        """Roll companion state after an accepted step."""

    def state_snapshot(self):
        """Copies of the mutable companion state (None when stateless)."""
        return None

    def state_restore(self, snap, mask) -> None:
        """Restore the masked instances' state from a snapshot."""

    def current(self, x, mode: str, dt, trap) -> np.ndarray:
        raise NotImplementedError


def _per_instance(trap, when_trap, when_be):
    """Select companion values by integrator phase, scalar or per-instance.

    The fixed lockstep path passes a python bool (one phase for the whole
    ensemble) and gets the single branch, exactly as before; the adaptive
    path passes a ``(B,)`` bool mask and gets an elementwise select whose
    chosen lane is the same IEEE arithmetic as the scalar branch.
    """
    if trap is True:
        return when_trap()
    if trap is False:
        return when_be()
    return np.where(trap, when_trap(), when_be())


class _ResistorBank(_Bank):
    has_current = True

    def __init__(self, elements, system):
        super().__init__(elements, system)
        ohms = _require_finite(self.name, "resistance", [el.ohms for el in elements])
        with np.errstate(over="ignore"):  # a subnormal R overflows; refused below
            g = 1.0 / ohms
        self.g = _require_finite(self.name, "conductance", g)

    def stamp_matrix(self, A, mode, dt, trap):
        a, b = self.nodes
        _add_conductance(A, a, b, self.g)

    def current(self, x, mode, dt, trap):
        a, b = self.nodes
        return (_v(x, a) - _v(x, b)) * self.g


class _CapacitorBank(_Bank):
    has_current = True

    def __init__(self, elements, system):
        super().__init__(elements, system)
        self.farads = _require_finite(
            self.name, "capacitance", [el.farads for el in elements]
        )
        self.ic = None if elements[0].ic is None else _require_finite(
            self.name, "initial condition", [el.ic for el in elements]
        )
        self.v = np.zeros(len(elements))
        self.i = np.zeros(len(elements))

    def _geq(self, dt, trap) -> np.ndarray:
        return _per_instance(
            trap,
            lambda: 2.0 * self.farads / dt,
            lambda: self.farads / dt,
        )

    def _companion(self, dt, trap):
        geq = self._geq(dt, trap)
        ieq = _per_instance(
            trap,
            lambda: geq * self.v + self.i,
            lambda: geq * self.v,
        )
        return geq, ieq

    def stamp_matrix(self, A, mode, dt, trap):
        a, b = self.nodes
        if mode == "dc":
            return
        if mode == "ic":
            if self.ic is not None:
                _add_conductance(A, a, b, _IC_FORCE_CONDUCTANCE)
            return
        _add_conductance(A, a, b, self._geq(dt, trap))

    def stamp_rhs(self, z, mode, t, dt, trap):
        a, b = self.nodes
        if mode == "dc":
            return
        if mode == "ic":
            if self.ic is not None:
                _add_rhs_current(z, b, a, _IC_FORCE_CONDUCTANCE * self.ic)
            return
        _, ieq = self._companion(dt, trap)
        _add_rhs_current(z, b, a, ieq)

    def init_state(self, x):
        a, b = self.nodes
        self.v = self.ic.copy() if self.ic is not None else _v(x, a) - _v(x, b)
        self.i = np.zeros(len(self.elements))

    def commit(self, x, dt, trap):
        a, b = self.nodes
        geq, ieq = self._companion(dt, trap)
        v = _v(x, a) - _v(x, b)
        self.i = geq * v - ieq
        self.v = np.array(v)

    def current(self, x, mode, dt, trap):
        # The t=0 sample runs through the backward-Euler first-step
        # companion exactly as the scalar recorder does (trap is False on
        # the first step by construction).
        a, b = self.nodes
        geq, ieq = self._companion(dt, trap)
        return geq * (_v(x, a) - _v(x, b)) - ieq

    def state_snapshot(self):
        return self.v.copy(), self.i.copy()

    def state_restore(self, snap, mask):
        self.v[mask] = snap[0][mask]
        self.i[mask] = snap[1][mask]


class _InductorBank(_Bank):
    has_current = True

    def __init__(self, elements, system):
        super().__init__(elements, system)
        self.henries = _require_finite(
            self.name, "inductance", [el.henries for el in elements]
        )
        self.ic = _require_finite(
            self.name, "initial condition", [el.ic for el in elements]
        )
        self.row = system.branch_row_of(elements[0])
        self.i = np.zeros(len(elements))
        self.v = np.zeros(len(elements))

    def _req(self, dt, trap) -> np.ndarray:
        return _per_instance(
            trap,
            lambda: 2.0 * self.henries / dt,
            lambda: self.henries / dt,
        )

    def stamp_matrix(self, A, mode, dt, trap):
        a, b = self.nodes
        row = self.row
        if a != 0:
            A[:, a - 1, row] += 1.0
        if b != 0:
            A[:, b - 1, row] -= 1.0
        if a != 0:
            A[:, row, a - 1] += 1.0
        if b != 0:
            A[:, row, b - 1] -= 1.0
        if mode == "dc":
            return
        if mode == "ic":
            A[:, row, row] += -_IC_INDUCTOR_R
            return
        A[:, row, row] += -self._req(dt, trap)

    def stamp_rhs(self, z, mode, t, dt, trap):
        if mode == "dc":
            return
        if mode == "ic":
            z[:, self.row] += -_IC_INDUCTOR_R * self.ic
            return
        req = self._req(dt, trap)
        veq = _per_instance(
            trap,
            lambda: -self.v - req * self.i,
            lambda: -req * self.i,
        )
        z[:, self.row] += veq

    def init_state(self, x):
        a, b = self.nodes
        self.i = self.ic.copy()
        self.v = _v(x, a) - _v(x, b)

    def commit(self, x, dt, trap):
        a, b = self.nodes
        self.i = np.array(x[:, self.row])
        self.v = _v(x, a) - _v(x, b)

    def current(self, x, mode, dt, trap):
        if mode == "ic":
            # The t=0 consistency stamp is a stiff short whose branch
            # unknown is not the inductor current; the state *is* ic.
            return self.ic.copy()
        return np.array(x[:, self.row])

    def state_snapshot(self):
        return self.i.copy(), self.v.copy()

    def state_restore(self, snap, mask):
        self.i[mask] = snap[0][mask]
        self.v[mask] = snap[1][mask]


class _MutualBank(_Bank):
    def __init__(self, elements, system, inductor_banks):
        super().__init__(elements, system)
        self.mutual = _require_finite(
            self.name, "mutual inductance", [el.mutual for el in elements]
        )
        self.pair = inductor_banks  # (bank of la, bank of lb)

    def _factor(self, dt, trap) -> np.ndarray:
        return _per_instance(
            trap,
            lambda: 2.0 * self.mutual / dt,
            lambda: self.mutual / dt,
        )

    def stamp_matrix(self, A, mode, dt, trap):
        if mode != "tran":
            return
        factor = self._factor(dt, trap)
        for own, other in (self.pair, self.pair[::-1]):
            A[:, own.row, other.row] += -factor

    def stamp_rhs(self, z, mode, t, dt, trap):
        if mode != "tran":
            return
        factor = self._factor(dt, trap)
        for own, other in (self.pair, self.pair[::-1]):
            z[:, own.row] += -factor * other.i


class _SourceBank(_Bank):
    """Independent-source bank: evaluates the B stimuli at one step."""

    def __init__(self, elements, system):
        super().__init__(elements, system)
        shapes = [el.shape for el in elements]
        # Shared-shape fast path: the frozen shape dataclasses compare by
        # value, so identical stimuli are evaluated once per step.
        self.shared = shapes[0] if all(s == shapes[0] for s in shapes[1:]) else None
        self.shapes = shapes

    def value(self, t):
        """Per-instance stimulus at a scalar or per-instance ``(B,)`` time."""
        if isinstance(t, np.ndarray):
            # Adaptive lockstep: every instance sits at its own time.  The
            # shape dataclasses are scalar piecewise evaluators, so walk the
            # batch (sources are few; the loop is invisible next to solves).
            if self.shared is not None:
                return np.array([self.shared(tb) for tb in t])
            return np.array([s(tb) for s, tb in zip(self.shapes, t)])
        if self.shared is not None:
            return self.shared(t)
        return np.array([s(t) for s in self.shapes])


class _VoltageSourceBank(_SourceBank):
    has_current = True

    def __init__(self, elements, system):
        super().__init__(elements, system)
        self.row = system.branch_row_of(elements[0])

    def stamp_matrix(self, A, mode, dt, trap):
        plus, minus = self.nodes
        row = self.row
        if plus != 0:
            A[:, plus - 1, row] += 1.0
            A[:, row, plus - 1] += 1.0
        if minus != 0:
            A[:, minus - 1, row] -= 1.0
            A[:, row, minus - 1] -= 1.0

    def stamp_rhs(self, z, mode, t, dt, trap):
        z[:, self.row] += self.value(t)

    def current(self, x, mode, dt, trap):
        return np.array(x[:, self.row])


class _CurrentSourceBank(_SourceBank):
    def stamp_rhs(self, z, mode, t, dt, trap):
        frm, to = self.nodes
        _add_rhs_current(z, frm, to, self.value(t))


class _MosfetBankAdapter(_Bank):
    """Nonlinear bank: restamped per Newton iterate via :class:`MosfetBank`."""

    has_current = True
    nonlinear = True

    def __init__(self, elements, system):
        super().__init__(elements, system)
        self.bank = MosfetBank(elements)

    def _bias(self, x):
        d, g, s, b = self.nodes
        vs = _v(x, s)
        return _v(x, g) - vs, _v(x, d) - vs, _v(x, b) - vs

    def stamp_matrix(self, A, mode, dt, trap, gmin: float = 0.0):
        # The gmin shunt is stamped by the device in the scalar engine but
        # is constant across iterates, so it lives in the cached linear
        # stack here (gmin differs between "ic" and "tran" solves; the
        # cache is keyed on mode).
        d, _, s, _ = self.nodes
        _add_conductance(A, d, s, gmin)

    def stamp_iterate(self, A, z, x) -> None:
        """Linearized device stamps for the whole ensemble.

        ``A``/``z`` are the full ``(B, n, n)``/``(B, n)`` work stacks;
        operating points are evaluated for every instance in one vectorized
        pass (instances share the stacked model's parameter axis).  Rows of
        instances that already converged or failed are stamped too — their
        solutions are simply never applied — because masking the math would
        cost more than the redundant flops at ensemble sizes where the
        per-operation overhead dominates.
        """
        d, g, s, b = self.nodes
        vgs, vds, vbs = self._bias(x)
        op = self.bank.partials(vgs, vds, vbs)
        gm, gds, gmbs = op.gm, op.gds, op.gmbs
        ieq = op.ids - gm * vgs - gds * vds - gmbs * vbs
        gsum = gm + gds + gmbs
        # KCL at drain: +Id; at source: -Id (mirrors MosfetElement.stamp).
        _add(A, d, g, gm)
        _add(A, d, d, gds)
        _add(A, d, b, gmbs)
        _add(A, d, s, -gsum)
        _add(A, s, g, -gm)
        _add(A, s, d, -gds)
        _add(A, s, b, -gmbs)
        _add(A, s, s, gsum)
        _add_rhs_current(z, d, s, ieq)

    def current(self, x, mode, dt, trap):
        return self.bank.ids(*self._bias(x))


def _build_banks(circuits: list[Circuit], system: MnaSystem) -> list[_Bank]:
    """One bank per template element position, instances column-aligned."""
    columns = [c.elements for c in circuits]
    banks: list[_Bank] = []
    by_position: dict[int, _Bank] = {}
    template = columns[0]
    position = {id(el): k for k, el in enumerate(template)}
    for k, el in enumerate(template):
        instances = [col[k] for col in columns]
        if isinstance(el, Resistor):
            bank = _ResistorBank(instances, system)
        elif isinstance(el, Capacitor):
            bank = _CapacitorBank(instances, system)
        elif isinstance(el, Inductor):
            bank = _InductorBank(instances, system)
        elif isinstance(el, MutualInductance):
            pair = (by_position[position[id(el.la)]], by_position[position[id(el.lb)]])
            bank = _MutualBank(instances, system, pair)
        elif isinstance(el, VoltageSource):
            bank = _VoltageSourceBank(instances, system)
        elif isinstance(el, CurrentSource):
            bank = _CurrentSourceBank(instances, system)
        elif isinstance(el, MosfetElement):
            bank = _MosfetBankAdapter(instances, system)
        else:  # pragma: no cover - lockstep_signature rejects these first
            raise BatchIncompatibleError(
                f"element {el.name!r} ({type(el).__name__}) has no batched stamp"
            )
        by_position[k] = bank
        banks.append(bank)
    return banks


class _BatchRecorder:
    """Capacity-doubling (steps, B, ...) sample buffers for one ensemble."""

    def __init__(self, batch: int, num_nodes: int, num_currents: int,
                 capacity: int = 256):
        self._n = 0
        self._times = np.empty(capacity)
        self._nodes = np.empty((capacity, batch, num_nodes))
        self._currents = np.empty((capacity, batch, num_currents))

    def append(self, t: float, node_x: np.ndarray, currents: np.ndarray) -> None:
        if self._n == len(self._times):
            cap = 2 * len(self._times)
            self._times = np.resize(self._times, cap)
            self._nodes = np.resize(self._nodes, (cap,) + self._nodes.shape[1:])
            self._currents = np.resize(self._currents, (cap,) + self._currents.shape[1:])
        i = self._n
        self._times[i] = t
        self._nodes[i] = node_x
        self._currents[i] = currents
        self._n += 1

    def finish(self):
        n = self._n
        return (np.array(self._times[:n]), self._nodes[:n], self._currents[:n])


class _Ensemble:
    """One lockstep ensemble: what both drivers share, and the Newton kernel.

    Holds the bank partition (linear, device and measured banks), the cached
    linear stack, the per-iterate work stacks, the per-instance telemetry
    counters and the ``alive``/``fallback`` masks.  The fixed-step driver
    passes scalar ``t``/``dt``/``trap``; the adaptive driver passes ``(B,)``
    arrays, one entry per instance (see :class:`_Bank`).
    """

    #: Per-instance counters, named after the SolverTelemetry fields they
    #: fill.  One linear-base assembly per solve and one device restamp per
    #: iterate (exactly the scalar engine's counting), so base_assemblies
    #: aliases newton_solves and nonlinear_restamps aliases newton_iterations.
    COUNTERS = ("newton_solves", "newton_iterations", "accepted_steps",
                "step_rejections", "step_retries", "lte_rejections",
                "mask_steps")

    def __init__(self, circuits, opts: TransientOptions, tstop: float,
                 dt: float, tstart: float):
        self.circuits = circuits
        self.opts = opts
        self.tstop, self.dt, self.tstart = tstop, dt, tstart
        self.batch = batch = len(circuits)
        systems = [MnaSystem(c) for c in circuits]  # assigns branch layout
        system = systems[0]
        n = self.size = system.size
        self.nn = system.num_node_unknowns
        if n == 0:
            raise BatchIncompatibleError("circuit has no unknowns")
        self.banks = _build_banks(circuits, system)
        self.linear = [b for b in self.banks if not b.nonlinear]
        self.devices = [b for b in self.banks if b.nonlinear]
        self.measured = [b for b in self.banks if b.has_current]

        # Vectorized counters, folded into SolverTelemetry records by
        # finish(): python-object updates per step would cost more than the
        # solves.
        self.count = {name: np.zeros(batch, dtype=int) for name in self.COUNTERS}
        self.alive = np.ones(batch, dtype=bool)      # still simulated in lockstep
        self.fallback = np.zeros(batch, dtype=bool)  # needs the scalar engine

        self._lin_A = np.zeros((batch, n, n))
        self._lin_z = np.zeros((batch, n))
        self._lin_key: tuple | None = None
        self._work_A = np.empty((batch, n, n))
        self._work_z = np.empty((batch, n))
        self._identity = np.eye(n)
        self._currents = np.empty((batch, len(self.measured)))

    def drop(self, failed: np.ndarray) -> None:
        """Hand the ``failed`` instances to the scalar engine."""
        self.alive[failed] = False
        self.fallback[failed] = True

    def tally(self, name: str, mask: np.ndarray) -> None:
        """Add one to counter ``name`` for every instance in ``mask``."""
        np.add(self.count[name], mask, out=self.count[name])

    def sample_currents(self, x, mode: str, dt, trap) -> np.ndarray:
        """``(B, measured)`` element currents at ``x`` (a reused buffer)."""
        for j, bank in enumerate(self.measured):
            self._currents[:, j] = bank.current(x, mode, dt, trap)
        return self._currents

    def _linear_matrix(self, mode: str, dt, trap, gmin: float) -> np.ndarray:
        # Constant while (mode, dt, trap-phase, gmin) are.  Per-instance
        # steps and phases enter the key by value, so the stack is also
        # reused whenever an adaptive round repeats them (e.g. every
        # instance regrowing at the cap).
        key = (mode, np.asarray(dt).tobytes(), np.asarray(trap).tobytes(), gmin)
        if key != self._lin_key:
            self._lin_A[:] = 0.0
            for bank in self.linear:
                bank.stamp_matrix(self._lin_A, mode, dt, trap)
            for bank in self.devices:
                bank.stamp_matrix(self._lin_A, mode, dt, trap, gmin=gmin)
            self._lin_key = key
        return self._lin_A

    def _linear_rhs(self, mode: str, t, dt, trap) -> np.ndarray:
        self._lin_z[:] = 0.0
        for bank in self.linear:
            bank.stamp_rhs(self._lin_z, mode, t, dt, trap)
        return self._lin_z

    def _solve(self, A, z, x, off: np.ndarray) -> np.ndarray:
        """Solve the linear stack plus the device stamps at ``x``.

        The ``off`` rows may hold garbage stamps, so they are swapped for a
        trivial identity system that keeps the stack solvable.
        """
        np.copyto(self._work_A, A)
        np.copyto(self._work_z, z)
        for bank in self.devices:
            bank.stamp_iterate(self._work_A, self._work_z, x)
        if off.any():
            self._work_A[off] = self._identity
            self._work_z[off] = 0.0
        return _solve_stack(self._work_A, self._work_z)

    def newton(self, mode: str, t, dt, trap, gmin: float, mask: np.ndarray,
               x0: np.ndarray):
        """One lockstep Newton solve over the ``mask`` instances.

        Returns ``(x, failed)``: rows outside ``mask`` keep ``x0``'s values,
        ``failed`` flags masked instances whose solve did not converge
        (iteration budget exhausted or a non-finite iterate) — the
        per-instance analogue of the scalar engine's ConvergenceError.

        The whole ensemble is computed every iterate and the masks gate only
        the bookkeeping (which rows accept the update, which count an
        iteration): at ensemble sizes where numpy's per-operation dispatch
        dominates, redundant flops on settled rows are cheaper than
        gather/scatter index machinery.  Converged instances leave the
        active set at exactly the iterate the scalar loop would stop.
        """
        x = x0.copy()
        failed = np.zeros(self.batch, dtype=bool)
        if not mask.any():
            return x, failed
        opts = self.opts
        self.tally("newton_solves", mask)
        A = self._linear_matrix(mode, dt, trap, gmin)
        z = self._linear_rhs(mode, t, dt, trap)

        if not self.devices:
            # Purely linear: the Newton map is affine, one direct batched
            # solve lands on the solution (iteration count stays 0, matching
            # the scalar direct-solve path).
            xn = self._solve(A, z, x, ~mask)
            finite = np.isfinite(xn).all(axis=1)
            return np.where((mask & finite)[:, None], xn, x), mask & ~finite

        active = mask.copy()
        for _ in range(opts.max_newton):
            self.tally("newton_iterations", active)
            xn = self._solve(A, z, x, ~mask | failed)
            if not np.isfinite(xn).all():
                finite = np.isfinite(xn).all(axis=1)
                failed |= active & ~finite
                active &= finite
                if not active.any():
                    return x, failed
                # Neutralize the non-finite rows so the update arithmetic
                # below stays warning-free (their x must not move anyway).
                xn = np.where(finite[:, None], xn, x)
            dx = xn - x
            adx = np.abs(dx)
            step = adx.max(axis=1)
            damped = step > DEFAULT_MAX_UPDATE
            if damped.any():
                scale = DEFAULT_MAX_UPDATE / np.maximum(step, DEFAULT_MAX_UPDATE)
                moved = np.where(damped[:, None], x + dx * scale[:, None], xn)
            else:
                moved = xn
            x = np.where(active[:, None], moved, x)
            # Same test as the scalar loop: damped iterations never declare
            # convergence; undamped ones converge when the update is small.
            conv = (adx <= opts.abstol + opts.reltol * np.abs(xn)).all(axis=1)
            active &= damped | ~conv
            if not active.any():
                return x, failed
        # Iteration budget exhausted: the remaining active instances would
        # need the recovery ladder.
        return x, failed | active

    def finish(self, span, waveform, ic_s: float, stepping_s: float,
               wall_start: float) -> list[TransientResult]:
        """Per-instance results: lockstep survivors, then scalar re-runs.

        ``waveform(b)`` returns instance ``b``'s ``(times, nodes, currents)``.
        The shared wall clock is split evenly across instance records so
        that aggregated telemetry still sums to real elapsed time.
        """
        batch = self.batch
        shares = {"ic": ic_s / batch, "stepping": stepping_s / batch,
                  "total": (time.perf_counter() - wall_start) / batch}
        results: list[TransientResult | None] = [None] * batch
        for b in np.flatnonzero(self.alive):
            counts = {name: int(c[b]) for name, c in self.count.items()}
            tel = SolverTelemetry(**counts,
                                  base_assemblies=counts["newton_solves"],
                                  nonlinear_restamps=counts["newton_iterations"])
            record_backend(tel, "dense_lu")
            for phase, seconds in shares.items():
                tel.add_phase_seconds(phase, seconds)
            record_session(tel)
            results[b] = TransientResult(self.circuits[b], *waveform(b),
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
    if tstop <= tstart:
        raise ValueError("tstop must be greater than tstart")
    if dt <= 0:
        raise ValueError("dt must be positive")
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

    ens = _Ensemble(circuits, opts, tstop, dt, tstart)
    wall_start = time.perf_counter()
    drive = _adaptive_lockstep if opts.adaptive else _fixed_lockstep
    attrs = {"adaptive": True} if opts.adaptive else {}
    # The span carries the whole-ensemble run; with tracing on, the
    # ic/stepping phase shares derive from the sub-span clocks
    # (trace.elapsed), otherwise from perf-counter anchors.
    with trace.span("batch_transient", batch=len(circuits), tstop=tstop,
                    dt=dt, **attrs) as span:
        waveform, ic_s, stepping_s = drive(ens, wall_start)
        return ens.finish(span, waveform, ic_s, stepping_s, wall_start)


def _fixed_lockstep(ens: _Ensemble, wall_start: float):
    """Shared-grid lockstep: the scalar engine's fixed step sequence.

    Breakpoint landing, the post-breakpoint backward-Euler restart and step
    regrowth are the scalar engine's; an instance whose Newton solve fails
    leaves the ensemble (the batch never halves the shared step).  Returns
    ``(waveform, ic_seconds, stepping_seconds)`` for :meth:`_Ensemble.finish`.
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
    for bank in ens.banks:
        bank.init_state(x)

    breakpoints = [b for b in ens.circuits[0].breakpoints() if tstart < b < tstop]
    breakpoints.append(tstop)

    recorder = _BatchRecorder(ens.batch, nn, len(ens.measured))
    recorder.append(tstart, x[:, :nn], ens.sample_currents(x, "ic", dt, False))

    t = tstart
    h = dt
    bp_iter = iter(breakpoints)
    next_bp = next(bp_iter)
    first_step = True
    stepping_start = time.perf_counter()

    with trace.span("stepping") as step_sp:
        while t < tstop - 1e-21 and ens.alive.any():
            h_step = min(h, next_bp - t)
            trap = opts.method == "trap" and not first_step
            x, failed = ens.newton("tran", t + h_step, h_step, trap, opts.gmin,
                                   ens.alive, x)
            ens.drop(failed)
            # Record, then commit state (commit consumes the pre-step state).
            currents = ens.sample_currents(x, "tran", h_step, trap)
            for bank in ens.banks:
                bank.commit(x, h_step, trap)
            first_step = False
            grown = min(dt, h_step * 2.0)

            t += h_step
            ens.tally("accepted_steps", ens.alive)
            recorder.append(t, x[:, :nn], currents)

            if abs(t - next_bp) < 1e-21 or t >= next_bp:
                # Source slope discontinuity: restart the integrator with a
                # backward-Euler step (see the scalar engine).
                first_step = True
                try:
                    next_bp = next(bp_iter)
                except StopIteration:
                    next_bp = tstop
            h = grown
    stepping_s = trace.elapsed(step_sp, stepping_start)

    times, nodes, currents = recorder.finish()
    names = [b.name for b in ens.measured]

    def waveform(b):
        return (times, np.array(nodes[:, b, :]),
                {name: np.array(currents[:, b, j]) for j, name in enumerate(names)})

    return waveform, ic_s, stepping_s


def _adaptive_lockstep(ens: _Ensemble, wall_start: float):
    """LTE-controlled lockstep: every instance walks its own step sequence.

    The fixed-step lockstep shares one grid across the ensemble; the
    adaptive controller cannot, because each instance's local truncation
    error drives its own step sizes.  Instead of serializing, the engine
    keeps the ensemble *phase-aligned*: every outer round runs the step-
    doubling triplet — one full ``h`` step (BIG), two ``h/2`` steps (MID,
    HALF2) — for all unfinished instances at once, each at its **own**
    ``(t, h, integrator-phase)`` carried as per-instance arrays.  A
    participation mask gates which rows of each vectorized solve are real;
    masked-out lanes get identity rows and their results are discarded.

    Parity contract: the controller is the scalar engine's, executed
    elementwise — the same companion arithmetic per lane (``np.where``
    blends preserve the selected branch bitwise), the same Newton damping
    and convergence tests, the same LTE formula, the same
    shrink/floor-accept/regrow float expressions, the same breakpoint
    landing rules.  Each instance therefore accepts and rejects *exactly*
    the steps the scalar engine would, with identical telemetry counts
    (``newton_solves``/``iterations``, ``accepted_steps``,
    ``step_rejections``/``retries``, ``lte_rejections``); ``mask_steps``
    additionally counts the instance's masked solve participations —
    a batch-only diagnostic of lockstep efficiency.

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
    stateful = [b for b in ens.banks if b.state_snapshot() is not None]
    method_trap = opts.method == "trap"
    min_h = opts.min_dt if opts.min_dt is not None else dt / _MIN_STEP_DIVISOR
    x_acc = np.zeros((batch, ens.size))

    # -- t=0 consistency solve -------------------------------------------------------
    no_trap = np.zeros(batch, dtype=bool)
    with trace.span("ic") as ic_sp:
        x_acc, ic_failed = ens.newton(
            "ic", np.full(batch, tstart), np.full(batch, dt), no_trap,
            max(opts.gmin, 1e-9), alive, x_acc)
        ens.drop(ic_failed)
    ic_s = trace.elapsed(ic_sp, wall_start)
    for bank in ens.banks:
        bank.init_state(x_acc)

    bps = [b for b in ens.circuits[0].breakpoints() if tstart < b < tstop]
    bps.append(tstop)
    bp_arr = np.array(bps)
    bp_idx = np.zeros(batch, dtype=int)
    last_bp = len(bps) - 1

    recorders = [_SampleRecorder(nn, [b.name for b in ens.measured])
                 for _ in range(batch)]
    cur_block = ens.sample_currents(x_acc, "ic", dt, False)
    for b in np.flatnonzero(alive):
        recorders[b].append(tstart, x_acc[b, :nn], cur_block[b])

    # Per-instance integrator state.
    t_i = np.full(batch, tstart)
    h_i = np.full(batch, dt)
    # A pending reject-retry overrides the min(h, breakpoint-gap) clamp: the
    # scalar controller does not re-clamp a halved/shrunk step within the
    # retry loop.  NaN means "no retry pending".
    retry_h = np.full(batch, np.nan)
    first_step = np.ones(batch, dtype=bool)
    stepping_start = time.perf_counter()

    with trace.span("stepping") as step_sp:
        while True:
            pending = alive & (t_i < tstop - 1e-21)
            if not pending.any():
                break
            ens.tally("mask_steps", pending)
            gap = bp_arr[bp_idx] - t_i
            h_step = np.where(np.isnan(retry_h), np.minimum(h_i, gap), retry_h)
            # Finished/fallen-back lanes ride along with a harmless dummy
            # step (their results are never consumed; the dummy keeps the
            # vectorized companion math division-safe).
            h_step = np.where(pending, h_step, 1.0)
            trap_big = pending & ~first_step if method_trap else no_trap

            # Step-doubling triplet, every lane at its own (t, h).
            x_big, fail_big = ens.newton(
                "tran", t_i + h_step, h_step, trap_big, opts.gmin, pending, x_acc)
            ok = pending & ~fail_big

            half = h_step / 2.0
            x_mid, fail_mid = ens.newton(
                "tran", t_i + half, half, trap_big, opts.gmin, ok, x_acc)
            ok = ok & ~fail_mid

            # Mid-point commit for lanes still in flight; the snapshot
            # restores every other lane afterwards (commit is all-lane
            # vectorized math) and, at the end of the round, every lane that
            # did not accept.
            snaps = [bank.state_snapshot() for bank in stateful]
            for bank in ens.banks:
                bank.commit(x_mid, half, trap_big)
            not_ok = ~ok
            for bank, snap in zip(stateful, snaps):
                bank.state_restore(snap, not_ok)

            # The second half step always runs on post-commit history (the
            # scalar engine's mid-commit clears first_step).
            trap_h2 = np.full(batch, method_trap)
            x_new, fail_h2 = ens.newton(
                "tran", t_i + h_step, half, trap_h2, opts.gmin, ok, x_mid)
            ok = ok & ~fail_h2

            # Newton failures: per-instance step halving, scalar-engine
            # fallback once a lane's ladder bottoms out.
            nfail = pending & ~ok
            if nfail.any():
                ens.tally("step_rejections", nfail)
                h_next = h_step / 2.0
                dead = nfail & (h_next < min_h)
                ens.drop(dead)
                retrying = nfail & ~dead
                ens.tally("step_retries", retrying)
                retry_h[retrying] = h_next[retrying]

            # LTE control (scalar formulas, elementwise).
            err = np.zeros(batch)
            if nn and ok.any():
                scale = opts.lte_atol + opts.lte_rtol * np.abs(x_new[:, :nn])
                err = np.max(np.abs(x_big[:, :nn] - x_new[:, :nn]) / scale, axis=1)
            lte_bad = ok & (err > 1.0)
            ens.tally("lte_rejections", lte_bad)
            pos = err > 0.0
            inv_cbrt = np.ones(batch)
            inv_cbrt[pos] = err[pos] ** (-1.0 / 3.0)
            h_shrunk = np.maximum(h_step * np.maximum(0.9 * inv_cbrt, 0.25), min_h)
            # Accept-at-the-floor quirk: a shrink clamped to min_h is
            # accepted with the *old* step's solutions but advances t by the
            # *new* (floored) step — exactly the scalar loop's
            # reassign-then-break.
            floor_acc = lte_bad & (h_shrunk <= min_h)
            accepted = (ok & ~lte_bad) | floor_acc
            lte_retry = lte_bad & ~floor_acc
            retry_h[lte_retry] = h_shrunk[lte_retry]

            # Currents sample the pre-commit (mid-committed) history, then
            # the final half-step commit lands; every lane that did not
            # accept is rolled back to its pre-round state.
            cur_block = ens.sample_currents(x_new, "tran", half, trap_h2)
            for bank in ens.banks:
                bank.commit(x_new, half, trap_h2)
            not_acc = ~accepted
            for bank, snap in zip(stateful, snaps):
                bank.state_restore(snap, not_acc)

            if accepted.any():
                h_used = np.where(floor_acc, h_shrunk, h_step)
                # Regrowth from the rejecting err on floor-accepts, from the
                # accepted err otherwise — scalar's `factor`.
                factor = np.full(batch, opts.max_growth)
                factor[pos] = 0.9 * inv_cbrt[pos]
                grown = np.minimum(dt, h_used * np.minimum(
                    np.maximum(factor, 0.25), opts.max_growth))
                t_i = np.where(accepted, t_i + h_used, t_i)
                x_acc = np.where(accepted[:, None], x_new, x_acc)
                ens.tally("accepted_steps", accepted)
                h_i = np.where(accepted, grown, h_i)
                retry_h[accepted] = np.nan
                first_step = first_step & ~accepted
                nbp = bp_arr[bp_idx]
                landed = accepted & ((np.abs(t_i - nbp) < 1e-21) | (t_i >= nbp))
                if landed.any():
                    # Source slope discontinuity: restart the lane's
                    # integrator with a backward-Euler step.
                    first_step = first_step | landed
                    bp_idx = np.where(landed, np.minimum(bp_idx + 1, last_bp), bp_idx)
                for b in np.flatnonzero(accepted):
                    recorders[b].append(t_i[b], x_new[b, :nn], cur_block[b])
    stepping_s = trace.elapsed(step_sp, stepping_start)

    return (lambda b: recorders[b].finish()), ic_s, stepping_s


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
