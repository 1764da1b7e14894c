"""Modified-nodal-analysis system assembly.

:class:`MnaSystem` owns the unknown ordering — node voltages for every
non-ground node, followed by one branch current per voltage source and
inductor — and rebuilds the ``A x = z`` system from the element stamps at
each Newton iterate.  The SSN driver banks are small (a collapsed bank has
5 unknowns, a bank of N drivers N + 4), so every system is assembled into
dense arrays and solved by LAPACK.

:class:`StampContext` is the façade elements stamp through; it hides the
ground-row elimination and the node-vs-branch index arithmetic.

Assembly
--------

Every element has an iterate-independent ``stamp`` and, if nonlinear (the
MOSFETs), an iterate-dependent ``stamp_iterate`` (see
:mod:`repro.spice.elements`).  The Newton solver drives one solve through
three steps of :class:`MnaSystem`:

* :meth:`~MnaSystem.stamp_base` stamps every element's ``stamp`` once per
  solve (:meth:`~MnaSystem.assemble_base`).  The base *matrix* depends
  only on ``(mode, dt, method, gmin)``, so the system keeps it while that
  key repeats and the pass restamps only the right-hand side (sources at
  ``t``, companion history);
* :meth:`~MnaSystem.stamp_iterate` copies the base and adds the
  ``stamp_iterate`` of :attr:`MnaSystem.devices` at one iterate
  (:meth:`~MnaSystem.assemble_nonlinear`) and returns ``(A, z)``;
* :meth:`~MnaSystem.solve` solves it, with a least-squares fallback.

The device stamps of an iterate do not write the matrix one numpy scalar
at a time.  The system plans once which positions of ``A`` and ``z`` its
devices write and where each device entry lands among them; each iterate
sums the stamps on Python floats, starting from the base's values there
and in device order, and lands them in one indexed write.  Every position
sees the same IEEE additions in the same order as the writes one at a
time, so the assembly is bit for bit theirs.  Devices read the iterate
as Python floats too: the solver hands over the float copy its Newton
control keeps (see :class:`StampContext`).

The buffers are owned by the system and reused across every time step
(each a flat array holding ``A`` then ``z``, so one copy resets a whole
system).  The system reads element values as they stand when a key is
first stamped: it is built per analysis, over a circuit that analysis
does not mutate.

For circuits with no nonlinear elements at all, the whole system depends
only on ``(mode, dt, method)`` — ``method`` being the integrator the engine
chose for the step — so :meth:`~MnaSystem.solve_base` solves the base
through a factor cache, reused across time steps and invalidated exactly
when that key or the matrix changes; see ``docs/performance.md``.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from scipy.linalg import lu_factor as _lu_factor, lu_solve as _lu_solve
from scipy.linalg.lapack import dgesv as _dgesv

from .circuit import Circuit
from .telemetry import SolverTelemetry

class StampContext:
    """Mutable assembly state handed to each element's ``stamp``.

    ``A``/``z`` may be caller-owned reusable buffers (the Newton solver's)
    or freshly allocated (default).  After a Newton solve converges, the
    returned context's ``x`` holds the *converged* unknowns while ``A``/``z``
    still hold the last iterate's assembly — state commits and current
    extraction only read ``x``, ``dt``, ``trap`` and the element states,
    so this is safe by construction (and bounded by the Newton tolerance).

    ``trap`` is the step's integrator phase (``method == "trap"``); the
    transient engine owns it and passes ``"be"`` on restart steps.

    With ``buffers=(None, z)`` matrix writes are dropped, so a base pass
    restamps only the right-hand side over a kept matrix (the rule of the
    batched engine's linear stack).

    Reads (:meth:`v`, :meth:`branch_value`) come from a Python-float copy
    of ``x``, made once per iterate array (or handed over by the solver
    through :meth:`at`) and matched to it by identity on every read, so a
    new ``x`` is never read through a stale copy (callers never mutate an
    ``x`` in place).  Writes land directly in ``A``/``z``, except inside
    :meth:`MnaSystem.stamp_iterate`, where the device stamps accumulate
    on floats and land in one indexed write.
    """

    def __init__(self, system: "MnaSystem", mode: str, t: float, dt: float,
                 method: str, states: dict, x: np.ndarray, gmin: float,
                 buffers: tuple | None = None):
        self.system = system
        self.mode = mode
        self.t = t
        self.dt = dt
        self.trap = method == "trap"
        self.x = x
        self.gmin = gmin
        self._states = states
        if buffers is None:
            n = system.size
            self.A = np.zeros((n, n))
            self.z = np.zeros(n)
        else:
            self.A, self.z = buffers
        # The float copy of x and the array it was made from.
        self._xs = None
        self._xs_of = None
        # An iterate pass's accumulators (None: direct writes; see
        # MnaSystem.stamp_iterate), the present device's matrix slots and
        # each node's right-hand-side slot.
        self._acc = None
        self._slots = ()
        self._z_slot = ()

    # -- state & values -----------------------------------------------------------

    def state(self, element) -> dict:
        """The engine-owned mutable state dict for this element."""
        return self._states.setdefault(element, {})

    def at(self, x: np.ndarray, xs: list[float] | None = None) -> None:
        """Position the context at iterate ``x``; ``xs``, when the caller
        holds it, is ``x.tolist()`` and spares the copy."""
        self.x = x
        self._xs = xs
        self._xs_of = None if xs is None else x

    def _floats(self) -> list[float]:
        """``x`` as Python floats, copied once per iterate array."""
        x = self.x
        if self._xs_of is not x:
            self._xs = x.tolist()
            self._xs_of = x
        return self._xs

    def v(self, node: int) -> float:
        """Voltage of a node at the present iterate (ground is 0 V)."""
        if node == 0:
            return 0.0
        if self._xs_of is not self.x:
            return self._floats()[node - 1]
        return self._xs[node - 1]

    def branch_value(self, element, k: int = 0) -> float:
        """Branch current unknown k of the element at the present iterate."""
        return self._floats()[self.branch_row(element, k)]

    def branch_row(self, element, k: int = 0) -> int:
        """Global row/column index of the element's k-th branch unknown."""
        return self.system.branch_row_of(element, k)

    def clear(self) -> None:
        """Zero the matrix and right-hand side before a base pass."""
        if self.A is not None:
            self.A[:] = 0.0
        self.z[:] = 0.0

    # -- stamping primitives --------------------------------------------------------

    def add_node_entry(self, row_node: int, col_node: int, value: float) -> None:
        """A[row, col] += value for two node ids, skipping ground."""
        if self.A is None or row_node == 0 or col_node == 0:
            return
        self.A[row_node - 1, col_node - 1] += value

    def add_entries(self, entries, values) -> None:
        """``A[rc] += values[k]`` for every ``(rc, k)`` of ``entries``, in order.

        ``rc`` is a ``(row, col)`` pair of unknown indices, ground already
        dropped (a device computes its list once, its ``entries``; see
        :class:`~repro.spice.mosfet.MosfetElement`).  Repeated pairs
        accumulate in list order, as the same writes one at a time would.
        Inside an accumulated pass the present device's planned slots
        stand for ``entries`` and the sums stay Python floats, written
        ``v + a``: numpy's scalar ``a += v`` keeps ``v``'s NaN when both
        operands are NaN, and IEEE 754 leaves that choice to the operand
        order.
        """
        acc = self._acc
        if acc is not None:
            for slot, k in self._slots:
                acc[slot] = values[k] + acc[slot]
            return
        A = self.A
        if A is None:
            return
        for rc, k in entries:
            A[rc] += values[k]

    def add_conductance(self, a: int, b: int, g: float) -> None:
        """Standard two-terminal conductance stamp between nodes a and b."""
        self.add_node_entry(a, a, g)
        self.add_node_entry(b, b, g)
        self.add_node_entry(a, b, -g)
        self.add_node_entry(b, a, -g)

    def add_rhs_current(self, frm: int, to: int, i: float) -> None:
        """A current ``i`` forced from node ``frm`` to node ``to``."""
        acc = self._acc
        if acc is not None:  # in numpy's operand order, see add_entries
            if frm != 0:
                acc[self._z_slot[frm]] -= i
            if to != 0:
                j = self._z_slot[to]
                acc[j] = i + acc[j]
            return
        if frm != 0:
            self.z[frm - 1] -= i
        if to != 0:
            self.z[to - 1] += i

    def add_branch_kcl(self, a: int, b: int, row: int) -> None:
        """KCL coupling of a branch current flowing a -> b."""
        if self.A is None:
            return
        if a != 0:
            self.A[a - 1, row] += 1.0
        if b != 0:
            self.A[b - 1, row] -= 1.0

    def add_branch_voltage(self, row: int, plus: int, minus: int) -> None:
        """Branch-equation terms ``+v(plus) - v(minus)`` on the given row."""
        if self.A is None:
            return
        if plus != 0:
            self.A[row, plus - 1] += 1.0
        if minus != 0:
            self.A[row, minus - 1] -= 1.0

    def set_branch_entry(self, row: int, col: int, value: float) -> None:
        if self.A is not None:
            self.A[row, col] += value

    def set_branch_rhs(self, row: int, value: float) -> None:
        self.z[row] += value


class MnaSystem:
    """Unknown ordering, assembly and linear solves for one circuit.

    The Newton solver drives one solve through three steps —
    :meth:`stamp_base`, :meth:`stamp_iterate` and :meth:`solve` (or
    :meth:`solve_base` for a circuit without nonlinear devices).
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.num_node_unknowns = circuit.num_nodes - 1
        nb = 0
        for el in circuit.elements:
            el.branch_start = nb if el.nbranches else None
            nb += el.nbranches
        self.num_branch_unknowns = nb
        self.size = n = self.num_node_unknowns + nb
        #: Elements with a ``stamp_iterate``, restamped at every Newton
        #: iterate (MOSFETs).
        self.devices = [el for el in circuit.elements if el.nonlinear]
        #: ``(model, bias, op)`` of the last scalar device evaluation in
        #: this run, or None: the identical drivers of a bank sit at one
        #: bias, so all but the first read it (see
        #: :class:`~repro.spice.mosfet.MosfetElement`).
        self.last_op = None
        # Reusable assembly buffers, the kept base and the per-iterate work
        # system, each one flat array: A row-major, then z.  A system is
        # then copied, and an iterate's device stamps land, in one write.
        nn = n * n
        self._base = np.zeros(nn + n)
        self._base_A, self._base_z = self._base[:nn].reshape(n, n), self._base[nn:]
        self._work = np.zeros(nn + n)
        self._work_A, self._work_z = self._work[:nn].reshape(n, n), self._work[nn:]
        # The (mode, dt, method, gmin) _base_A was stamped for.
        self._base_key = None
        # The accumulated-stamp plan (see stamp_iterate): the unique flat
        # positions the devices' iterate stamps write, each device's
        # ((slot, k), ...) matrix slots among them and each device node's
        # right-hand-side slot.
        flat: dict[int, int] = {}
        self._slots = [
            tuple((flat.setdefault(r * n + c, len(flat)), k) for (r, c), k in el.entries)
            for el in self.devices]
        self._z_slot = [None] * circuit.num_nodes
        for el in self.devices:
            for node in el.nodes:
                if node:
                    self._z_slot[node] = flat.setdefault(nn + node - 1, len(flat))
        self._pos = np.array(list(flat), dtype=np.intp)
        # The base's values there, read once per solve: the start of each
        # iterate's accumulators.
        self._acc0: list[float] = []
        # Factor cache for linear-only circuits: key -> a solve callable
        # over the factors, plus a copy of the factored matrix guarding
        # against key collisions (two circuits/element values sharing one
        # key).
        self._lu_key = None
        self._lu = None
        self._lu_guard: np.ndarray | None = None
        #: SolverTelemetry the current solve records into.
        self.telemetry = SolverTelemetry()

    def branch_row_of(self, element, k: int = 0) -> int:
        """Global row/column index of an element's k-th branch unknown.

        Shared by :class:`StampContext` and the batched ensemble engine
        (:mod:`repro.spice.batch`), which scatters per-instance stamps by
        the same unknown ordering.
        """
        if element.branch_start is None:
            raise RuntimeError(f"element {element.name} has no assigned branches")
        return self.num_node_unknowns + element.branch_start + k

    def context(self, mode: str, t: float, dt: float, method: str,
                states: dict, x: np.ndarray, gmin: float,
                buffers: tuple | None = None) -> StampContext:
        return StampContext(self, mode, t, dt, method, states, x, gmin,
                            buffers=buffers)

    # -- assembly -------------------------------------------------------------------

    def assemble_base(self, ctx: StampContext) -> None:
        """Clear ``ctx``'s buffers and stamp every element's ``stamp``."""
        self.telemetry.base_assemblies += 1
        ctx.clear()
        for el in self.circuit.elements:
            el.stamp(ctx)

    def assemble_nonlinear(self, ctx: StampContext) -> None:
        """Add the nonlinear elements' ``stamp_iterate`` to ``ctx``.

        Over the accumulators :meth:`stamp_iterate` opens, each device
        stamps through its planned slots and the sums land in one indexed
        write; any other context (AC's complex assembly, a bare
        context) takes the writes one at a time.
        """
        self.telemetry.nonlinear_restamps += 1
        acc = ctx._acc
        if acc is None:
            for el in self.devices:
                el.stamp_iterate(ctx)
            return
        try:
            for el, slots in zip(self.devices, self._slots):
                ctx._slots = slots
                el.stamp_iterate(ctx)
        finally:
            ctx._acc = None
        self._work[self._pos] = acc

    def stamp_base(self, mode: str, t: float, dt: float, method: str,
                   states: dict, x: np.ndarray, gmin: float) -> StampContext:
        """Stamp the iterate-independent base of one solve.

        The base matrix is kept while ``(mode, dt, method, gmin)`` repeats,
        and the pass then restamps only the right-hand side.  Returns the
        context the solve's iterates stamp through, which the solver hands
        back positioned at the converged point.
        """
        key = (mode, dt, method, gmin)
        base_A = None if key == self._base_key else self._base_A
        self._base_key = None  # until the pass completes
        self.assemble_base(self.context(mode, t, dt, method, states, x, gmin,
                                        buffers=(base_A, self._base_z)))
        self._base_key = key
        if self.devices:
            self._acc0 = self._base[self._pos].tolist()
        ctx = self.context(mode, t, dt, method, states, x, gmin,
                           buffers=(self._work_A, self._work_z))
        ctx._z_slot = self._z_slot
        return ctx

    def stamp_iterate(self, ctx: StampContext, x: np.ndarray,
                      xs: list[float] | None = None):
        """The ``(A, z)`` of Newton iterate ``x``: the base copied into the
        work buffers, plus the nonlinear devices restamped at ``x``.

        ``ctx`` is the context :meth:`stamp_base` returned and ``xs`` is
        ``x.tolist()`` when the caller holds it (the solver's Newton control
        does).  The device stamps accumulate on Python floats that start
        from the base's values at the planned positions, in device order:
        every position sees the IEEE additions the writes one at a time
        would make, in the same order, so ``(A, z)`` is bit for bit theirs.
        """
        ctx.at(x, xs)
        np.copyto(self._work, self._base)
        ctx._acc = self._acc0.copy()
        self.assemble_nonlinear(ctx)
        return ctx.A, ctx.z

    # -- linear solves --------------------------------------------------------------

    def solve(self, A: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Solve one Newton iterate's ``A x = z`` afresh.

        LAPACK ``dgesv`` directly (numpy's solve wrapper costs more than
        the factorization at these sizes), least squares when a pivot is
        exactly singular.
        """
        _, _, x, info = _dgesv(A, z)
        if info > 0:
            x, *_ = np.linalg.lstsq(A, z, rcond=None)
        return x

    def solve_base(self, key) -> np.ndarray:
        """Solve the last stamped base alone, through the factor cache: the
        whole solve of a circuit with no nonlinear devices."""
        return self.solve_linear_cached(key, self._base_A, self._base_z)

    def solve_linear_cached(self, key, A: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Solve ``A x = z`` reusing the factors when ``key`` repeats.

        The key alone is not trusted: reuse additionally requires ``A`` to
        equal the matrix that was factored (an O(n^2) compare against a
        factorization), so a different circuit, or the same circuit with
        mutated element values, sharing one ``(mode, dt, method)`` key can
        never pick up a stale factorization.

        Singular matrices (floating subcircuits) fall back to a fresh solve
        and then least squares.
        """
        tel = self.telemetry
        with warnings.catch_warnings():
            # Exactly singular matrices fall back below; silence scipy's
            # LinAlgWarning on the zero pivot.
            warnings.simplefilter("ignore")
            stale = key == self._lu_key and not np.array_equal(A, self._lu_guard)
            if stale:
                tel.lu_cache_invalidations += 1
            if key != self._lu_key or stale:
                tel.lu_cache_misses += 1
                self._lu = _factorize(A)
                self._lu_key = None if self._lu is None else key
                self._lu_guard = None if self._lu is None else A.copy()
            else:
                tel.lu_cache_hits += 1
            if self._lu is not None:
                x = self._lu(z)
                if np.all(np.isfinite(x)):
                    return x
                # Singular or near-singular: drop the cache entry and
                # fall through to the fresh solve below.
                self._lu = self._lu_key = self._lu_guard = None
        try:
            return np.linalg.solve(A, z)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(A, z, rcond=None)
            return x


def _factorize(A: np.ndarray):
    """A solve callable over the LU factors of ``A``, or None when the
    matrix will not factor."""
    try:
        return functools.partial(_lu_solve, _lu_factor(A))
    except (ValueError, np.linalg.LinAlgError):
        return None
