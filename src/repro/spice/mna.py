"""Modified-nodal-analysis system assembly.

:class:`MnaSystem` owns the unknown ordering — node voltages for every
non-ground node, followed by one branch current per voltage source and
inductor — and rebuilds the ``A x = z`` system from the element stamps at
each Newton iterate.  The SSN driver banks are small (tens of nodes), where
dense LAPACK solves beat any sparse machinery; larger interconnect networks
(hundreds of nodes and up) hit the dense path's ``O(n^3)`` wall, so a
sparse CSC tier sits alongside it (see below).

:class:`StampContext` is the façade elements stamp through; it hides the
ground-row elimination and the node-vs-branch index arithmetic.

Assembly
--------

Every element has an iterate-independent ``stamp`` and, if nonlinear (the
MOSFETs), an iterate-dependent ``stamp_iterate`` (see
:mod:`repro.spice.elements`).  The Newton solver drives one solve through
three tier-aware steps of :class:`MnaSystem`, and only the system knows
which linear-algebra tier runs them:

* :meth:`~MnaSystem.stamp_base` stamps every element's ``stamp`` once per
  solve (:meth:`~MnaSystem.assemble_base`).  The base *matrix* depends
  only on ``(mode, dt, method, gmin)``, so the dense tier keeps it while
  that key repeats and the pass restamps only the right-hand side
  (sources at ``t``, companion history);
* :meth:`~MnaSystem.stamp_iterate` adds the ``stamp_iterate`` of
  :attr:`MnaSystem.devices` at one iterate
  (:meth:`~MnaSystem.assemble_nonlinear`) and returns ``(A, z)``;
* :meth:`~MnaSystem.solve` solves it, with the tier's singular fallback.

The buffers are owned by the system and reused across every time step, so
the steady-state allocation rate of a dense transient run is zero.  The
system reads element values as they stand when a key is first stamped: it
is built per analysis, over a circuit that analysis does not mutate.

For circuits with no nonlinear elements at all, the whole system depends
only on ``(mode, dt, method)`` — ``method`` being the integrator the engine
chose for the step — so :meth:`~MnaSystem.solve_base` solves the base
through one factor cache for both tiers, reused across time steps and
invalidated exactly when that key or the matrix changes; see
``docs/performance.md``.

Sparse tier
-----------

At :data:`SPARSE_AUTO_THRESHOLD` unknowns and above (or on explicit request
via ``TransientOptions(sparse=True)``) assembly and factorization switch to
compressed sparse column form; ``TransientOptions.sparse`` alone picks the
tier (:func:`resolve_sparse`).  :class:`SparseStampContext` records each
element's matrix writes as triplets through the *same* stamping primitives;
the first pass per ``(kind, mode)`` builds a symbolic CSC pattern (sorted
unique coordinates plus a permutation from write order to data slots), and
every later pass cursor-fills a preallocated value array and accumulates
duplicates with one ``np.bincount`` — no python-level index work repeats.
The dense tier copies the base into work buffers and adds the devices on
top; the sparse tier stamps the devices into their own small pattern and
adds the base CSC matrix and right-hand side.  Factorization uses
``scipy.sparse.linalg.splu``; singular systems fall back to dense least
squares exactly like the dense tier.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from scipy import sparse as _sparse
from scipy.linalg import lu_factor as _lu_factor, lu_solve as _lu_solve
from scipy.linalg.lapack import dgesv as _dgesv
from scipy.sparse.linalg import splu as _splu

from .circuit import Circuit
from .telemetry import SolverTelemetry

#: Unknown-count above which ``sparse="auto"`` engages the CSC tier.  The
#: crossover is where one dense O(n^3) factorization per Newton iterate
#: starts losing to splu on the near-banded matrices MNA produces; measured
#: on the RC-ladder scaling benchmark the break-even sits near 150 unknowns
#: (the SSN driver banks all sit far below, large interconnect ladders far
#: above).
SPARSE_AUTO_THRESHOLD = 150


def resolve_sparse(option, size: int) -> bool:
    """Resolve a ``TransientOptions.sparse`` request to a concrete bool.

    ``True``/``False`` pin the tier; ``"auto"`` engages sparse at
    :data:`SPARSE_AUTO_THRESHOLD` unknowns and above.
    """
    if option != "auto":
        return bool(option)
    return size >= SPARSE_AUTO_THRESHOLD


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


class _SparsePattern:
    """Cached symbolic CSC structure of one deterministic stamp pass.

    Element stamping is a fixed call sequence per ``(kind, mode)`` — which
    entries are written depends only on the circuit structure and the
    analysis mode, never on the iterate or the step — so the coordinate
    stream of the first pass describes every later one.  The pattern stores
    the sorted-unique CSC skeleton plus the permutation mapping write-order
    positions to data slots; refills are a cursor write per stamp plus one
    ``bincount`` to fold duplicates.
    """

    __slots__ = ("n", "count", "nnz", "perm", "indices", "indptr", "vals")

    def __init__(self, n: int, rows: list, cols: list):
        lin = np.asarray(cols, dtype=np.int64) * n + np.asarray(rows, dtype=np.int64)
        uniq, perm = np.unique(lin, return_inverse=True)
        self.n = n
        self.count = len(lin)
        self.nnz = len(uniq)
        self.perm = perm
        self.indices = (uniq % n).astype(np.int32)
        self.indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
        self.vals = np.empty(self.count)

    def matrix(self):
        """The CSC matrix of the currently filled value array."""
        data = np.bincount(self.perm, weights=self.vals, minlength=self.nnz)
        return _sparse.csc_matrix(
            (data, self.indices, self.indptr), shape=(self.n, self.n)
        )


class SparseStampContext(StampContext):
    """Stamp context recording matrix writes as sparse triplets.

    Elements stamp through the exact primitives of :class:`StampContext`;
    every matrix-touching one is rerouted, so its ``A`` is unused (the
    right-hand side stays a dense vector — it is dense by nature and every
    solve reads it whole).
    With no ``pattern`` the context records coordinates for a first-pass
    symbolic analysis; with one it cursor-fills the pattern's value slots,
    and :meth:`MnaSystem._sparse_pass` checks the write count afterwards so
    any structural drift rebuilds the pattern instead of corrupting the
    matrix.
    """

    def __init__(self, system: "MnaSystem", mode: str, t: float, dt: float,
                 method: str, states: dict, x: np.ndarray, gmin: float,
                 z: np.ndarray):
        super().__init__(system, mode, t, dt, method, states, x, gmin,
                         buffers=(None, z))
        self.pattern: _SparsePattern | None = None
        self.cursor = 0

    def clear(self) -> None:
        """Zero the right-hand side and rewind the matrix writes."""
        self.z[:] = 0.0
        self.cursor = 0
        if self.pattern is None:
            self.rows: list = []
            self.cols: list = []
            self.vals: list = []

    def record(self) -> _SparsePattern:
        """The pattern (filled) of the pass just recorded."""
        pattern = _SparsePattern(self.system.size, self.rows, self.cols)
        pattern.vals[:] = self.vals
        self.pattern = pattern
        return pattern

    # -- matrix writes, rerouted ----------------------------------------------------

    def _entry(self, row: int, col: int, value: float) -> None:
        pattern = self.pattern
        if pattern is None:
            self.rows.append(row)
            self.cols.append(col)
            self.vals.append(value)
            return
        k = self.cursor
        self.cursor = k + 1
        if k < pattern.count:  # overflow detected by the pass's count check
            pattern.vals[k] = value

    def add_node_entry(self, row_node: int, col_node: int, value: float) -> None:
        if row_node == 0 or col_node == 0:
            return
        self._entry(row_node - 1, col_node - 1, value)

    def add_branch_kcl(self, a: int, b: int, row: int) -> None:
        if a != 0:
            self._entry(a - 1, row, 1.0)
        if b != 0:
            self._entry(b - 1, row, -1.0)

    def add_branch_voltage(self, row: int, plus: int, minus: int) -> None:
        if plus != 0:
            self._entry(row, plus - 1, 1.0)
        if minus != 0:
            self._entry(row, minus - 1, -1.0)

    def set_branch_entry(self, row: int, col: int, value: float) -> None:
        self._entry(row, col, value)

    def add_entries(self, entries, values) -> None:
        for (row, col), k in entries:
            self._entry(row, col, values[k])


class MnaSystem:
    """Unknown ordering, assembly and linear solves for one circuit.

    The Newton solver drives one solve through three steps —
    :meth:`stamp_base`, :meth:`stamp_iterate` and :meth:`solve` (or
    :meth:`solve_base` for a circuit without nonlinear devices) — and only
    this class knows which linear-algebra tier (:attr:`sparse`) runs them.
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
        #: Whether solves route through the sparse CSC tier (set by the
        #: transient engine after resolving ``TransientOptions.sparse``).
        self.sparse = False
        # Reusable assembly buffers: the base and work right-hand sides on
        # both tiers; the dense matrices (allocated on first dense use) and
        # the sparse tier's base CSC matrix of the current solve.
        self._base_z = np.zeros(n)
        self._work_z = np.zeros(n)
        self._base_A: np.ndarray | None = None
        self._work_A: np.ndarray | None = None
        self._base_csc = None
        # The (mode, dt, method, gmin) the dense _base_A was stamped for.
        self._base_key = None
        # Symbolic CSC patterns keyed (kind, mode).
        self._sparse_patterns: dict = {}
        # Factor cache for linear-only circuits, one for both tiers: key ->
        # a solve callable over the factors, plus a copy of the factored
        # matrix (dense) or of its CSC data array (sparse) guarding against
        # key collisions (two circuits/element values sharing one key).
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

        Dense: the base matrix is kept while ``(mode, dt, method, gmin)``
        repeats, and the pass then restamps only the right-hand side.
        Sparse: every pass refills the base pattern.  Returns the context
        the solve's iterates stamp through, which the solver hands back
        positioned at the converged point.
        """
        if self.sparse:
            base = SparseStampContext(self, mode, t, dt, method, states, x,
                                      gmin, self._base_z)
            self._base_csc = self._sparse_pass(self.assemble_base, "base", base)
            return SparseStampContext(self, mode, t, dt, method, states, x,
                                      gmin, self._work_z)
        if self._work_A is None:
            n = self.size
            self._base_A = np.zeros((n, n))
            self._work_A = np.zeros((n, n))
        key = (mode, dt, method, gmin)
        base_A = None if key == self._base_key else self._base_A
        self._base_key = None  # until the pass completes
        self.assemble_base(self.context(mode, t, dt, method, states, x, gmin,
                                        buffers=(base_A, self._base_z)))
        self._base_key = key
        return self.context(mode, t, dt, method, states, x, gmin,
                            buffers=(self._work_A, self._work_z))

    def stamp_iterate(self, ctx: StampContext, x: np.ndarray):
        """The ``(A, z)`` of Newton iterate ``x``: the base plus the
        nonlinear devices restamped at ``x``.

        Dense: the base is copied into the work buffers and the devices add
        onto it.  Sparse: the devices fill their own small CSC pattern over
        a zeroed right-hand side, and the base is added to both.
        """
        ctx.x = x
        if self.sparse:
            nonlinear = self._sparse_pass(self.assemble_nonlinear, "nonlinear", ctx)
            ctx.z += self._base_z
            return self._base_csc + nonlinear, ctx.z
        np.copyto(ctx.A, self._base_A)
        np.copyto(ctx.z, self._base_z)
        self.assemble_nonlinear(ctx)
        return ctx.A, ctx.z

    def _sparse_pass(self, assemble, kind: str, ctx: SparseStampContext):
        """One counted stamp pass into ``ctx``; returns its CSC matrix.

        The first pass per ``(kind, mode)`` records the symbolic pattern and
        later passes cursor-fill it.  A pass that writes a different number
        of entries than the recorded one (structural drift) is stamped once
        more, recording a fresh pattern.
        """
        key = (kind, ctx.mode)
        pattern = ctx.pattern = self._sparse_patterns.get(key)
        ctx.clear()
        assemble(ctx)
        if pattern is not None:
            if ctx.cursor == pattern.count:
                self.telemetry.sparse_pattern_reuses += 1
                return pattern.matrix()
            ctx.pattern = None
            ctx.clear()
            assemble(ctx)
        pattern = self._sparse_patterns[key] = ctx.record()
        return pattern.matrix()

    # -- linear solves --------------------------------------------------------------

    def solve(self, A, z: np.ndarray) -> np.ndarray:
        """Solve one Newton iterate's ``A x = z`` afresh.

        Dense: LAPACK ``dgesv`` directly (numpy's solve wrapper costs more
        than the factorization at these sizes), least squares when a pivot
        is exactly singular.  Sparse: ``splu``, degrading to a dense solve
        when the factorization fails.
        """
        if self.sparse:
            lu = self._factorize(A)
            return lu(z) if lu is not None else _dense_fallback_solve(A, z)
        _, _, x, info = _dgesv(A, z)
        if info > 0:
            x, *_ = np.linalg.lstsq(A, z, rcond=None)
        return x

    def solve_base(self, key) -> np.ndarray:
        """Solve the last stamped base alone, through the factor cache: the
        whole solve of a circuit with no nonlinear devices."""
        A = self._base_csc if self.sparse else self._base_A
        return self.solve_linear_cached(key, A, self._base_z)

    def solve_linear_cached(self, key, A, z: np.ndarray) -> np.ndarray:
        """Solve ``A x = z`` reusing the factors when ``key`` repeats.

        One cache for both tiers.  The key alone is not trusted: reuse
        additionally requires the assembled matrix — the dense array, or
        the CSC data array on the sparse tier — to equal the one that was
        factored (an O(n^2) or O(nnz) compare against a factorization), so
        a different circuit, or the same circuit with mutated element
        values, sharing one ``(mode, dt, method)`` key can never pick up a
        stale factorization.

        Singular matrices (floating subcircuits) fall back to a dense solve
        and then least squares.
        """
        tel = self.telemetry
        guard = A.data if self.sparse else A
        with warnings.catch_warnings():
            # Exactly singular matrices fall back below; silence scipy's
            # LinAlgWarning on the zero pivot.
            warnings.simplefilter("ignore")
            stale = key == self._lu_key and not np.array_equal(guard, self._lu_guard)
            if stale:
                tel.lu_cache_invalidations += 1
            if key != self._lu_key or stale:
                tel.lu_cache_misses += 1
                self._lu = self._factorize(A)
                self._lu_key = None if self._lu is None else key
                self._lu_guard = None if self._lu is None else guard.copy()
            else:
                tel.lu_cache_hits += 1
            if self._lu is not None:
                x = self._lu(z)
                if np.all(np.isfinite(x)):
                    return x
                # Singular or near-singular: drop the cache entry and
                # fall through to the dense solve below.
                self._lu = self._lu_key = self._lu_guard = None
        return _dense_fallback_solve(A, z)

    def _factorize(self, A):
        """A solve callable over the factors of ``A`` on this tier, or None
        when the matrix will not factor."""
        if not self.sparse:
            try:
                return functools.partial(_lu_solve, _lu_factor(A))
            except (ValueError, np.linalg.LinAlgError):
                return None
        try:
            with warnings.catch_warnings():
                # Singular/ill-conditioned factorizations degrade, as the
                # dense tier does; silence SuperLU's condition warnings.
                warnings.simplefilter("ignore")
                lu = _splu(A)
        except (RuntimeError, ValueError):
            return None
        self.telemetry.sparse_factorizations += 1
        return lu.solve


def _dense_fallback_solve(A, z: np.ndarray) -> np.ndarray:
    """Solve densely, degrading to least squares — the singular path."""
    dense = A.toarray() if _sparse.issparse(A) else A
    try:
        return np.linalg.solve(dense, z)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(dense, z, rcond=None)
        return x
