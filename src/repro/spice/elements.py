"""Linear circuit elements and their MNA stamps.

All elements stamp into a :class:`~repro.spice.mna.StampContext` that
encapsulates the MNA matrix, right-hand side, current Newton iterate and
integration mode:

* ``mode="dc"``   — capacitors open, inductors short; used for operating points.
* ``mode="ic"``   — t=0 consistency solve: capacitors with an ``ic`` are
  forced to that voltage (stiff Norton), inductors are forced to carry their
  ``ic`` current; this yields consistent initial node voltages (SPICE ``UIC``).
* ``mode="tran"`` — companion models (backward Euler or trapezoidal) built
  from per-element state held by the engine.

Sign conventions: MNA rows are KCL "sum of currents leaving the node = 0"
moved so that ``A x = z``; branch currents flow from the element's first
node to its second.
"""

from __future__ import annotations

from .sources import SourceShape

#: Conductance used to force a capacitor to its initial condition in "ic" mode.
_IC_FORCE_CONDUCTANCE = 1e3
#: Series resistance of the stiff Thevenin an inductor stamps in "ic" mode.
_IC_INDUCTOR_R = 1e-3


class Element:
    """Base class: a named element over integer node ids."""

    #: Number of extra MNA branch-current unknowns this element introduces.
    nbranches = 0

    #: True when ``stamp`` reads the Newton iterate ``x`` — such elements
    #: are restamped at every iterate; all others stamp once per solve into
    #: the cached base matrix (see :class:`repro.spice.mna.MnaSystem`).
    nonlinear = False

    #: State-dict keys whose values change this element's *matrix* stamp
    #: (not just the RHS).  The linear-circuit LU cache keys on these; an
    #: element whose matrix stamp depends on state it does not declare here
    #: would silently break that cache.
    matrix_state_keys: tuple[str, ...] = ()

    def __init__(self, name: str, nodes: tuple[int, ...]):
        self.name = name
        self.nodes = nodes
        # Assigned by MnaSystem before any analysis.
        self.branch_start: int | None = None

    def stamp(self, ctx) -> None:
        """Add this element's contribution for the current iterate/mode."""
        raise NotImplementedError

    def commit(self, ctx) -> None:
        """Roll per-element state after an accepted time step."""

    def init_state(self, ctx) -> None:
        """Initialize per-element state from the t=0 consistency solution."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class Resistor(Element):
    """Linear resistor."""

    def __init__(self, name: str, a: int, b: int, ohms: float):
        if ohms <= 0:
            raise ValueError(f"resistor {name}: resistance must be positive, got {ohms}")
        super().__init__(name, (a, b))
        self.ohms = ohms

    def stamp(self, ctx) -> None:
        a, b = self.nodes
        ctx.add_conductance(a, b, 1.0 / self.ohms)

    def current(self, ctx) -> float:
        """Current a->b at the present iterate."""
        a, b = self.nodes
        return (ctx.v(a) - ctx.v(b)) / self.ohms


class Capacitor(Element):
    """Linear capacitor with optional initial voltage."""

    matrix_state_keys = ("first_step",)

    def __init__(self, name: str, a: int, b: int, farads: float, ic: float | None = None):
        if farads <= 0:
            raise ValueError(f"capacitor {name}: capacitance must be positive, got {farads}")
        super().__init__(name, (a, b))
        self.farads = farads
        self.ic = ic
        # One-slot companion-conductance cache: step halving/regrowth in the
        # transient engine revisits the same few dt values, and the division
        # shows up in profiles at ~1e5 stamps per run.
        self._geq_key: tuple[float, bool] | None = None
        self._geq: float = 0.0

    def _conductance(self, dt: float, trap: bool) -> float:
        """geq for the active companion method, cached per (dt, method)."""
        key = (dt, trap)
        if key != self._geq_key:
            self._geq = (2.0 * self.farads / dt) if trap else (self.farads / dt)
            self._geq_key = key
        return self._geq

    def _companion(self, ctx) -> tuple[float, float]:
        """(geq, ieq) such that i(a->b) = geq * v - ieq for the active method."""
        state = ctx.state(self)
        if ctx.method == "trap" and not state.get("first_step", True):
            geq = self._conductance(ctx.dt, True)
            ieq = geq * state["v"] + state["i"]
        else:
            # Backward Euler; also used for the first step after a restart,
            # where no consistent previous current exists yet.
            geq = self._conductance(ctx.dt, False)
            ieq = geq * state["v"]
        return geq, ieq

    def stamp(self, ctx) -> None:
        a, b = self.nodes
        if ctx.mode == "dc":
            return  # open circuit
        if ctx.mode == "ic":
            if self.ic is not None:
                ctx.add_conductance(a, b, _IC_FORCE_CONDUCTANCE)
                ctx.add_rhs_current(b, a, _IC_FORCE_CONDUCTANCE * self.ic)
            return
        geq, ieq = self._companion(ctx)
        ctx.add_conductance(a, b, geq)
        ctx.add_rhs_current(b, a, ieq)

    def init_state(self, ctx) -> None:
        a, b = self.nodes
        v = self.ic if self.ic is not None else ctx.v(a) - ctx.v(b)
        ctx.state(self).update(v=float(v), i=0.0, first_step=True)

    def commit(self, ctx) -> None:
        a, b = self.nodes
        state = ctx.state(self)
        geq, ieq = self._companion(ctx)
        v = ctx.v(a) - ctx.v(b)
        state["i"] = geq * v - ieq
        state["v"] = v
        state["first_step"] = False

    def current(self, ctx) -> float:
        """Capacitor current a->b at the present iterate (tran mode only)."""
        a, b = self.nodes
        geq, ieq = self._companion(ctx)
        return geq * (ctx.v(a) - ctx.v(b)) - ieq


class Inductor(Element):
    """Linear inductor; its branch current is an MNA unknown."""

    nbranches = 1
    matrix_state_keys = ("first_step",)

    def __init__(self, name: str, a: int, b: int, henries: float, ic: float = 0.0):
        if henries <= 0:
            raise ValueError(f"inductor {name}: inductance must be positive, got {henries}")
        super().__init__(name, (a, b))
        self.henries = henries
        self.ic = ic
        self._req_key: tuple[float, bool] | None = None
        self._req: float = 0.0

    def _resistance(self, dt: float, trap: bool) -> float:
        """req for the active companion method, cached per (dt, method)."""
        key = (dt, trap)
        if key != self._req_key:
            self._req = (2.0 * self.henries / dt) if trap else (self.henries / dt)
            self._req_key = key
        return self._req

    def stamp(self, ctx) -> None:
        a, b = self.nodes
        row = ctx.branch_row(self)
        # KCL: branch current leaves a, enters b.
        ctx.add_branch_kcl(a, b, row)
        # Branch equation.
        ctx.add_branch_voltage(row, a, b)
        if ctx.mode == "dc":
            return  # v_a - v_b = 0 (short)
        if ctx.mode == "ic":
            # A bare current constraint (i = ic) would leave nodes whose only
            # DC path to ground runs through this inductor floating.  Stamp a
            # stiff Thevenin instead: v = _IC_INDUCTOR_R * (i - ic).  Node
            # voltages then initialize as if the inductor were a short, while
            # the inductor *state* still starts at exactly ic (see init_state).
            ctx.set_branch_entry(row, row, -_IC_INDUCTOR_R)
            ctx.set_branch_rhs(row, -_IC_INDUCTOR_R * self.ic)
            return
        state = ctx.state(self)
        if ctx.method == "trap" and not state.get("first_step", True):
            req = self._resistance(ctx.dt, True)
            veq = -state["v"] - req * state["i"]
        else:
            req = self._resistance(ctx.dt, False)
            veq = -req * state["i"]
        ctx.set_branch_entry(row, row, -req)
        ctx.set_branch_rhs(row, veq)

    def init_state(self, ctx) -> None:
        a, b = self.nodes
        ctx.state(self).update(i=float(self.ic), v=ctx.v(a) - ctx.v(b), first_step=True)

    def commit(self, ctx) -> None:
        a, b = self.nodes
        state = ctx.state(self)
        state["i"] = ctx.branch_value(self)
        state["v"] = ctx.v(a) - ctx.v(b)
        state["first_step"] = False

    def current(self, ctx) -> float:
        if ctx.mode == "ic":
            # The t=0 consistency stamp is a stiff short whose branch
            # unknown is not the inductor current; the state *is* ic.
            return self.ic
        return ctx.branch_value(self)


class MutualInductance(Element):
    """Magnetic coupling between two inductors (e.g. adjacent package pins).

    Adds the cross terms of the coupled branch equations

        v_a = La*dia/dt + M*dib/dt,     v_b = Lb*dib/dt + M*dia/dt,

    with ``M = coupling * sqrt(La * Lb)``.  Each inductor keeps stamping
    its own self term; this element augments both branch rows with the
    mutual term using the *same* companion method (BE/trap, including the
    first-step restart) the partner rows use, so the pair stays consistent.
    DC and IC modes need no contribution (the inductors stamp as shorts).
    """

    def __init__(self, name: str, la: "Inductor", lb: "Inductor", coupling: float):
        if not 0.0 < coupling < 1.0:
            raise ValueError(
                f"mutual coupling {name}: coefficient must be in (0, 1), got {coupling}"
            )
        if la is lb:
            raise ValueError(f"mutual coupling {name}: needs two distinct inductors")
        super().__init__(name, la.nodes + lb.nodes)
        self.la = la
        self.lb = lb
        self.coupling = coupling
        self._factor_key: tuple[float, bool] | None = None
        self._factor: float = 0.0

    @property
    def mutual(self) -> float:
        """M in henries."""
        return self.coupling * (self.la.henries * self.lb.henries) ** 0.5

    def _mutual_factor(self, dt: float, trap: bool) -> float:
        key = (dt, trap)
        if key != self._factor_key:
            m = self.mutual
            self._factor = (2.0 * m / dt) if trap else (m / dt)
            self._factor_key = key
        return self._factor

    def stamp(self, ctx) -> None:
        if ctx.mode != "tran":
            return
        for own, other in ((self.la, self.lb), (self.lb, self.la)):
            row = ctx.branch_row(own)
            col = ctx.branch_row(other)
            own_state = ctx.state(own)
            other_state = ctx.state(other)
            trap = ctx.method == "trap" and not own_state.get("first_step", True)
            factor = self._mutual_factor(ctx.dt, trap)
            ctx.set_branch_entry(row, col, -factor)
            ctx.set_branch_rhs(row, -factor * other_state.get("i", 0.0))


class VoltageSource(Element):
    """Independent voltage source with a time-dependent shape."""

    nbranches = 1

    def __init__(self, name: str, plus: int, minus: int, shape: SourceShape):
        super().__init__(name, (plus, minus))
        self.shape = shape

    def stamp(self, ctx) -> None:
        plus, minus = self.nodes
        row = ctx.branch_row(self)
        ctx.add_branch_kcl(plus, minus, row)
        ctx.add_branch_voltage(row, plus, minus)
        ctx.set_branch_rhs(row, self.shape(ctx.t))

    def current(self, ctx) -> float:
        """Current flowing plus -> minus through the source."""
        return ctx.branch_value(self)


class CurrentSource(Element):
    """Independent current source pushing current from ``frm`` to ``to``."""

    def __init__(self, name: str, frm: int, to: int, shape: SourceShape):
        super().__init__(name, (frm, to))
        self.shape = shape

    def stamp(self, ctx) -> None:
        frm, to = self.nodes
        ctx.add_rhs_current(frm, to, self.shape(ctx.t))
