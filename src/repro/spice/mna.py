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
:mod:`repro.spice.elements`).  The solver stamps every element's ``stamp``
**once** per ``(mode, t, dt, method)`` into a cached base matrix/RHS pair,
and per Newton iterate copies the base into preallocated work buffers and
adds only the ``stamp_iterate`` of :attr:`MnaSystem.devices`.  The buffers
are owned by the system and reused across every time step, so the
steady-state allocation rate of a transient run is zero.

For circuits with no nonlinear elements at all, the matrix depends only on
``(mode, dt, method)`` — ``method`` being the integrator the engine chose
for the step — so its LU factorization is cached across time steps and
invalidated exactly when that key changes; see ``docs/performance.md``.

Sparse tier
-----------

Above :data:`SPARSE_AUTO_THRESHOLD` unknowns (or on explicit request via
``TransientOptions(sparse=True)``) assembly and factorization switch to
compressed sparse column form.  :class:`SparseStampContext` records each
element's matrix writes as triplets through the *same* stamping primitives;
the first pass per ``(kind, mode)`` builds a symbolic CSC pattern (sorted
unique coordinates plus a permutation from write order to data slots), and
every later pass cursor-fills a preallocated value array and accumulates
duplicates with one ``np.bincount`` — no python-level index work repeats.
Factorization uses ``scipy.sparse.linalg.splu``; linear-only circuits cache
the factorization under the same key (and the same staleness guard) as the
dense LU cache.  Singular systems fall back to
dense least squares exactly like the dense lane.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from scipy import sparse as _sparse
from scipy.linalg import lu_factor as _lu_factor, lu_solve as _lu_solve
from scipy.sparse.linalg import splu as _splu

from .circuit import Circuit

#: Unknown-count above which ``sparse="auto"`` engages the CSC tier.  The
#: crossover is where one dense O(n^3) factorization per Newton iterate
#: starts losing to splu on the near-banded matrices MNA produces; measured
#: on the RC-ladder scaling benchmark the break-even sits near 150 unknowns
#: (the SSN driver banks all sit far below, large interconnect ladders far
#: above).
SPARSE_AUTO_THRESHOLD = 150

#: Environment variable consulted by ``sparse="auto"`` when no process
#: default is installed: "on", "off" or "auto".
SPARSE_ENV = "REPRO_SPARSE"

SPARSE_MODES = ("auto", "on", "off")

_default_sparse: str | None = None


def set_default_sparse(mode: str | None) -> None:
    """Install a process-wide default for ``sparse="auto"`` resolution.

    ``"on"`` / ``"off"`` force the tier regardless of circuit size,
    ``"auto"`` (or ``None``) restores the size-threshold heuristic.  Sits
    between explicit ``TransientOptions(sparse=...)`` values and the
    ``REPRO_SPARSE`` environment variable, mirroring the engine-selection
    precedence of :mod:`repro.analysis.engine`; the CLI's ``--sparse`` flag
    is a thin wrapper around this.
    """
    global _default_sparse
    if mode is not None and mode not in SPARSE_MODES:
        raise ValueError(f"unknown sparse mode {mode!r}; choose from {SPARSE_MODES}")
    _default_sparse = mode


def default_sparse_mode() -> str:
    """The effective process-wide ``sparse="auto"`` default mode.

    Pure read of the :func:`set_default_sparse` / ``REPRO_SPARSE``
    precedence chain, normalized to one of :data:`SPARSE_MODES`.  An
    invalid environment value silently maps to ``"auto"`` here — the
    :class:`RuntimeWarning` for it belongs to :func:`resolve_sparse` at
    simulation time, not to every cache-key derivation.  Result-cache keys
    fold this in so flipping the default between calls can never return a
    stale-keyed hit.
    """
    mode = _default_sparse
    if mode is None:
        mode = os.environ.get(SPARSE_ENV) or "auto"
        if mode not in SPARSE_MODES:
            mode = "auto"
    return mode


def resolve_sparse(option, size: int) -> bool:
    """Resolve a ``TransientOptions.sparse`` request to a concrete bool.

    ``True``/``False`` are explicit; ``"auto"`` consults the process
    default (:func:`set_default_sparse`), then ``REPRO_SPARSE``, then the
    :data:`SPARSE_AUTO_THRESHOLD` size heuristic.
    """
    if option == "auto":
        mode = _default_sparse
        if mode is None:
            mode = os.environ.get(SPARSE_ENV) or "auto"
            if mode not in SPARSE_MODES:
                warnings.warn(
                    f"ignoring invalid {SPARSE_ENV}={mode!r}; "
                    f"choose from {SPARSE_MODES}",
                    RuntimeWarning, stacklevel=2,
                )
                mode = "auto"
        if mode == "on":
            option = True
        elif mode == "off":
            option = False
        else:
            option = size >= SPARSE_AUTO_THRESHOLD
    return bool(option)


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

    # -- stamping primitives --------------------------------------------------------

    def add_node_entry(self, row_node: int, col_node: int, value: float) -> None:
        """A[row, col] += value for two node ids, skipping ground."""
        if row_node == 0 or col_node == 0:
            return
        self.A[row_node - 1, col_node - 1] += value

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
        if a != 0:
            self.A[a - 1, row] += 1.0
        if b != 0:
            self.A[b - 1, row] -= 1.0

    def add_branch_voltage(self, row: int, plus: int, minus: int) -> None:
        """Branch-equation terms ``+v(plus) - v(minus)`` on the given row."""
        if plus != 0:
            self.A[row, plus - 1] += 1.0
        if minus != 0:
            self.A[row, minus - 1] -= 1.0

    def set_branch_entry(self, row: int, col: int, value: float) -> None:
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
    only the matrix-touching ones are rerouted (the right-hand side stays a
    dense vector — it is dense by nature and every solve reads it whole).
    With no ``pattern`` the context records coordinates for a first-pass
    symbolic analysis; with one it cursor-fills the pattern's value slots,
    and the caller verifies the write count afterwards so any structural
    drift rebuilds the pattern instead of corrupting the matrix.
    """

    def __init__(self, system: "MnaSystem", mode: str, t: float, dt: float,
                 method: str, states: dict, x: np.ndarray, gmin: float,
                 z: np.ndarray, pattern: _SparsePattern | None = None):
        super().__init__(system, mode, t, dt, method, states, x, gmin,
                         buffers=(None, z))
        self.pattern = pattern
        self.cursor = 0
        if pattern is None:
            self.rows: list = []
            self.cols: list = []
            self.vals: list = []

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
        if k < pattern.count:  # overflow detected by the caller's count check
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

    def finish(self, kind: str, mode: str) -> bool:
        """Close one stamp pass; True when the pattern is valid and filled."""
        pattern = self.pattern
        system = self.system
        if pattern is None:
            pattern = _SparsePattern(system.size, self.rows, self.cols)
            pattern.vals[:] = self.vals
            system._sparse_patterns[(kind, mode)] = pattern
            self.pattern = pattern
            return True
        return self.cursor == pattern.count


class MnaSystem:
    """Unknown ordering and assembly for one circuit."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.num_node_unknowns = circuit.num_nodes - 1
        nb = 0
        for el in circuit.elements:
            el.branch_start = nb if el.nbranches else None
            nb += el.nbranches
        self.num_branch_unknowns = nb
        self.size = self.num_node_unknowns + nb
        #: Elements with a ``stamp_iterate``, restamped at every Newton
        #: iterate (MOSFETs).
        self.devices = [el for el in circuit.elements if el.nonlinear]
        # Reusable assembly buffers, allocated on first use.
        self._base_A: np.ndarray | None = None
        self._base_z: np.ndarray | None = None
        self._work_A: np.ndarray | None = None
        self._work_z: np.ndarray | None = None
        # LU cache for linear-only circuits: key -> LAPACK getrf factors,
        # plus a copy of the factored matrix guarding against key collisions
        # (two circuits/element values sharing one (mode, dt, method)).
        self._lu_key = None
        self._lu = None
        self._lu_A: np.ndarray | None = None
        #: Whether solves route through the sparse CSC tier (set by the
        #: transient engine after resolving ``TransientOptions.sparse``).
        self.sparse = False
        # Symbolic patterns keyed (kind, mode) plus the splu analogue of
        # the dense LU cache (same key contract, data-array staleness guard).
        self._sparse_patterns: dict = {}
        self._splu_key = None
        self._splu = None
        self._splu_data: np.ndarray | None = None
        #: Optional SolverTelemetry the current solve records into.
        self.telemetry = None

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

    def assembly_buffers(self):
        """The system-owned (base_A, base_z, work_A, work_z) scratch buffers."""
        if self._base_A is None:
            n = self.size
            self._base_A = np.zeros((n, n))
            self._base_z = np.zeros(n)
            self._work_A = np.zeros((n, n))
            self._work_z = np.zeros(n)
        return self._base_A, self._base_z, self._work_A, self._work_z

    def assemble_base(self, ctx: StampContext) -> None:
        """Zero ``ctx``'s buffers and stamp every element's ``stamp``."""
        if self.telemetry is not None:
            self.telemetry.base_assemblies += 1
        ctx.A[:] = 0.0
        ctx.z[:] = 0.0
        for el in self.circuit.elements:
            el.stamp(ctx)

    def assemble_nonlinear(self, ctx: StampContext) -> None:
        """Add the nonlinear elements' ``stamp_iterate`` to the copied base."""
        if self.telemetry is not None:
            self.telemetry.nonlinear_restamps += 1
        for el in self.devices:
            el.stamp_iterate(ctx)

    # -- linear-circuit LU reuse ---------------------------------------------------

    def solve_linear_cached(self, key, A: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Solve ``A x = z`` reusing the LU factors when ``key`` repeats.

        The key alone is not trusted: reuse additionally requires the
        assembled matrix to equal the one that was factored (an O(n^2)
        compare versus the O(n^3) factorization), so a different circuit —
        or the same circuit with mutated element values — sharing an
        identical ``(mode, dt, method)`` key can never pick up a stale
        factorization.

        Falls back to least squares when the matrix is singular (floating
        subcircuits), mirroring the plain Newton path's behavior.
        """
        tel = self.telemetry
        with warnings.catch_warnings():
            # Exactly singular matrices (floating subcircuits) fall back
            # to least squares below, as the plain path does — silence
            # scipy's LinAlgWarning on the zero pivot.
            warnings.simplefilter("ignore")
            stale = (
                key == self._lu_key
                and self._lu_A is not None
                and not np.array_equal(A, self._lu_A)
            )
            if stale and tel is not None:
                tel.lu_cache_invalidations += 1
            if key != self._lu_key or stale:
                if tel is not None:
                    tel.lu_cache_misses += 1
                try:
                    self._lu = _lu_factor(A)
                    self._lu_key = key
                    self._lu_A = A.copy()
                except (ValueError, np.linalg.LinAlgError):
                    self._lu = None
                    self._lu_key = None
                    self._lu_A = None
            elif tel is not None:
                tel.lu_cache_hits += 1
            if self._lu is not None:
                x = _lu_solve(self._lu, z)
                if np.all(np.isfinite(x)):
                    return x
                # Singular or near-singular: drop the cache entry and
                # fall through to the dense solve below.
                self._lu = None
                self._lu_key = None
                self._lu_A = None
        try:
            return np.linalg.solve(A, z)
        except np.linalg.LinAlgError:
            x, *_ = np.linalg.lstsq(A, z, rcond=None)
            return x

    # -- sparse tier ----------------------------------------------------------------

    def assemble_sparse(self, kind: str, mode: str, t: float, dt: float,
                        method: str, states: dict, x: np.ndarray, gmin: float,
                        z: np.ndarray):
        """One sparse stamp pass.

        ``kind`` picks the pass — "base" runs every element's ``stamp``,
        "nonlinear" the nonlinear elements' ``stamp_iterate`` — and scopes
        the cached symbolic pattern; ``z`` is the caller's dense
        right-hand-side buffer, zeroed here so a pattern rebuild can
        restamp cleanly.  Returns ``(A, ctx)`` with ``A`` the assembled CSC
        matrix.
        """
        tel = self.telemetry
        if tel is not None:
            if kind == "base":
                tel.base_assemblies += 1
            else:
                tel.nonlinear_restamps += 1
        if kind == "base":
            stamps = [el.stamp for el in self.circuit.elements]
        else:
            stamps = [el.stamp_iterate for el in self.devices]
        pattern = self._sparse_patterns.get((kind, mode))
        for _ in range(2):
            z[:] = 0.0
            ctx = SparseStampContext(self, mode, t, dt, method, states, x,
                                     gmin, z, pattern=pattern)
            for stamp in stamps:
                stamp(ctx)
            if ctx.finish(kind, mode):
                if pattern is not None and tel is not None:
                    tel.sparse_pattern_reuses += 1
                return ctx.pattern.matrix(), ctx
            # Structural drift (a stamp wrote more or fewer entries than
            # the recorded pass): rebuild the pattern from scratch.
            pattern = None
        raise RuntimeError("sparse pattern failed to stabilize after a rebuild")

    def solve_sparse_cached(self, key, A, z: np.ndarray) -> np.ndarray:
        """Sparse analogue of :meth:`solve_linear_cached`.

        Reuses the cached ``splu`` factorization when ``key`` repeats *and*
        the assembled data array matches the factored one (the same
        staleness guard as the dense LU cache, O(nnz) instead of O(n^2)).
        Singular systems fall back to dense least squares, mirroring the
        dense lane's degradation.
        """
        tel = self.telemetry
        stale = (
            key == self._splu_key
            and self._splu_data is not None
            and not np.array_equal(A.data, self._splu_data)
        )
        if stale and tel is not None:
            tel.lu_cache_invalidations += 1
        if key != self._splu_key or stale:
            if tel is not None:
                tel.lu_cache_misses += 1
            self._splu = self.sparse_factorize(A)
            if self._splu is not None:
                self._splu_key = key
                self._splu_data = A.data.copy()
            else:
                self._splu_key = None
                self._splu_data = None
        elif tel is not None:
            tel.lu_cache_hits += 1
        if self._splu is not None:
            x = self._splu.solve(z)
            if np.all(np.isfinite(x)):
                return x
            # Near-singular factors: drop the cache entry and degrade.
            self._splu = None
            self._splu_key = None
            self._splu_data = None
        return _dense_fallback_solve(A, z)

    def sparse_factorize(self, A):
        """``splu(A)`` with the singular-matrix degradation, or None."""
        try:
            with warnings.catch_warnings():
                # Singular/ill-conditioned factorizations degrade below, as
                # the dense lane does; silence SuperLU's condition warnings.
                warnings.simplefilter("ignore")
                lu = _splu(A)
        except (RuntimeError, ValueError):
            return None
        if self.telemetry is not None:
            self.telemetry.sparse_factorizations += 1
        return lu


def _dense_fallback_solve(A, z: np.ndarray) -> np.ndarray:
    """Densify and solve, degrading to least squares — the singular path."""
    dense = A.toarray()
    try:
        return np.linalg.solve(dense, z)
    except np.linalg.LinAlgError:
        x, *_ = np.linalg.lstsq(dense, z, rcond=None)
        return x
