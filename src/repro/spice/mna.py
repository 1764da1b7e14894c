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
* :meth:`~MnaSystem.stamp_iterate` adds the ``stamp_iterate`` of
  :attr:`MnaSystem.devices` at one iterate
  (:meth:`~MnaSystem.assemble_nonlinear`) and returns ``(A, z)``;
* :meth:`~MnaSystem.solve` solves it, with a least-squares fallback.

The buffers are owned by the system and reused across every time step, so
the steady-state allocation rate of a transient run is zero.  The system
reads element values as they stand when a key is first stamped: it is
built per analysis, over a circuit that analysis does not mutate.

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

    # -- state & values -----------------------------------------------------------

    def state(self, element) -> dict:
        """The engine-owned mutable state dict for this element."""
        return self._states.setdefault(element, {})

    def v(self, node: int) -> float:
        """Voltage of a node at the present iterate (ground is 0 V)."""
        if node == 0:
            return 0.0
        return float(self.x[node - 1])

    def branch_value(self, element, k: int = 0) -> float:
        """Branch current unknown k of the element at the present iterate."""
        return float(self.x[self.branch_row(element, k)])

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
        dropped (a device computes its list once; see
        :class:`~repro.spice.mosfet.MosfetElement`).  Repeated pairs
        accumulate in list order, as the same writes one at a time would.
        """
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
        # Reusable assembly buffers: the kept base and the per-iterate work
        # system.
        self._base_A = np.zeros((n, n))
        self._base_z = np.zeros(n)
        self._work_A = np.zeros((n, n))
        self._work_z = np.zeros(n)
        # The (mode, dt, method, gmin) _base_A was stamped for.
        self._base_key = None
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
        """Add the nonlinear elements' ``stamp_iterate`` to ``ctx``."""
        self.telemetry.nonlinear_restamps += 1
        for el in self.devices:
            el.stamp_iterate(ctx)

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
        return self.context(mode, t, dt, method, states, x, gmin,
                            buffers=(self._work_A, self._work_z))

    def stamp_iterate(self, ctx: StampContext, x: np.ndarray):
        """The ``(A, z)`` of Newton iterate ``x``: the base copied into the
        work buffers, plus the nonlinear devices restamped at ``x``."""
        ctx.x = x
        np.copyto(ctx.A, self._base_A)
        np.copyto(ctx.z, self._base_z)
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
