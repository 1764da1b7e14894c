"""Linear circuit elements and their MNA stamps.

All elements stamp into a :class:`~repro.spice.mna.StampContext` that
encapsulates the MNA matrix, right-hand side, current Newton iterate and
integration mode:

* ``mode="dc"``   — capacitors open, inductors short; used for operating points.
* ``mode="ic"``   — t=0 consistency solve: capacitors with an ``ic`` are
  forced to that voltage (stiff Norton), inductors are forced to carry their
  ``ic`` current; this yields consistent initial node voltages (SPICE ``UIC``).
* ``mode="tran"`` — companion models (backward Euler or trapezoidal) built
  from per-element state held by the engine.  The engine picks the step's
  integrator (backward Euler on the first step after t=0 and after every
  source breakpoint); stamps read it as ``ctx.trap``.

Each element has two stamps.  ``stamp`` is every contribution that does
not depend on the Newton iterate ``x`` — for the MOSFET that is only its
gmin shunt — and lands once per solve in the engine's cached base system;
``stamp_iterate`` (nonlinear elements only) is the part linearized at the
present iterate and is restamped at every Newton iteration.

The same stamps serve the batched ensemble engine (:mod:`repro.spice.batch`):
there an element's parameters (:attr:`Element.params`), node voltages,
state values and ``ctx.trap`` may all be ``(B,)`` arrays, one entry per
ensemble instance.  The companion formulas are therefore written in
float-or-array arithmetic, pick the integrator with :func:`_by_phase`, and
commits *replace* state values instead of mutating them in place (the
batch engine restores rejected instances by swapping values back).

Sign conventions: MNA rows are KCL "sum of currents leaving the node = 0"
moved so that ``A x = z``; branch currents flow from the element's first
node to its second.
"""

from __future__ import annotations

import numpy as np

from .sources import SourceShape

#: Conductance used to force a capacitor to its initial condition in "ic" mode.
_IC_FORCE_CONDUCTANCE = 1e3
#: Series resistance of the stiff Thevenin an inductor stamps in "ic" mode.
_IC_INDUCTOR_R = 1e-3


def _by_phase(trap, when_trap, when_be):
    """Select a companion value by integrator phase.

    ``trap`` is a bool when the whole system shares one integrator (the
    scalar engine, the batched fixed-step path) and a ``(B,)`` mask when
    every instance carries its own (the batched adaptive path); the masked
    select picks, per lane, the same IEEE result as the scalar branch.
    """
    if isinstance(trap, np.ndarray):
        return np.where(trap, when_trap, when_be)
    return when_trap if trap else when_be


class Element:
    """Base class: a named element over integer node ids."""

    #: Number of extra MNA branch-current unknowns this element introduces.
    nbranches = 0

    #: True when the element has a ``stamp_iterate`` that reads the Newton
    #: iterate ``x`` and is restamped at every iterate; ``stamp`` always
    #: lands once per solve in the cached base system (see
    #: :class:`repro.spice.mna.MnaSystem`).  Such an element also lists
    #: ``entries``, the ``((row, col), k)`` matrix entries of its one
    #: ``add_entries`` call per iterate, and writes the right-hand side
    #: only at its own nodes: the system plans its accumulated stamps
    #: from these.
    nonlinear = False

    #: Parameter attributes the batched engine stacks into ``(B,)`` arrays.
    params: tuple[str, ...] = ()

    def __init__(self, name: str, nodes: tuple[int, ...]):
        self.name = name
        self.nodes = nodes
        # Assigned by MnaSystem before any analysis.
        self.branch_start: int | None = None

    def stamp(self, ctx) -> None:
        """Add the contribution that does not depend on the Newton iterate."""
        raise NotImplementedError

    def commit(self, ctx):
        """Roll per-element state after an accepted time step.

        Returns the element's current at the step when the commit computes
        it — bit for bit what ``current`` reads before the commit — so
        the step records it without a second evaluation; None otherwise.
        """

    def init_state(self, ctx) -> None:
        """Initialize per-element state from the t=0 consistency solution."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, nodes={self.nodes})"


class Resistor(Element):
    """Linear resistor."""

    params = ("ohms",)

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

    params = ("farads", "ic")

    def __init__(self, name: str, a: int, b: int, farads: float, ic: float | None = None):
        if farads <= 0:
            raise ValueError(f"capacitor {name}: capacitance must be positive, got {farads}")
        super().__init__(name, (a, b))
        self.farads = farads
        self.ic = ic

    def _companion(self, ctx):
        """(geq, ieq) such that i(a->b) = geq * v - ieq for the step's integrator."""
        state = ctx.state(self)
        trap = ctx.trap
        geq = _by_phase(trap, 2.0 * self.farads / ctx.dt, self.farads / ctx.dt)
        gv = geq * state["v"]
        return geq, _by_phase(trap, gv + state["i"], gv)

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
        ctx.state(self).update(v=v, i=0.0)

    def commit(self, ctx):
        a, b = self.nodes
        state = ctx.state(self)
        geq, ieq = self._companion(ctx)
        v = ctx.v(a) - ctx.v(b)
        i = state["i"] = geq * v - ieq
        state["v"] = v
        return i

    def current(self, ctx):
        """Capacitor current a->b at the present iterate (tran mode only)."""
        a, b = self.nodes
        geq, ieq = self._companion(ctx)
        return geq * (ctx.v(a) - ctx.v(b)) - ieq


class Inductor(Element):
    """Linear inductor; its branch current is an MNA unknown."""

    nbranches = 1
    params = ("henries", "ic")

    def __init__(self, name: str, a: int, b: int, henries: float, ic: float = 0.0):
        if henries <= 0:
            raise ValueError(f"inductor {name}: inductance must be positive, got {henries}")
        super().__init__(name, (a, b))
        self.henries = henries
        self.ic = ic

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
        trap = ctx.trap
        req = _by_phase(trap, 2.0 * self.henries / ctx.dt, self.henries / ctx.dt)
        ri = req * state["i"]
        ctx.set_branch_entry(row, row, -req)
        ctx.set_branch_rhs(row, _by_phase(trap, -state["v"] - ri, -ri))

    def init_state(self, ctx) -> None:
        a, b = self.nodes
        ctx.state(self).update(i=self.ic, v=ctx.v(a) - ctx.v(b))

    def commit(self, ctx):
        a, b = self.nodes
        state = ctx.state(self)
        i = state["i"] = ctx.branch_value(self)
        state["v"] = ctx.v(a) - ctx.v(b)
        return i

    def current(self, ctx):
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
    mutual term using the *same* companion method (the step's BE/trap
    phase) the partner rows use, so the pair stays consistent.
    DC and IC modes need no contribution (the inductors stamp as shorts).
    """

    params = ("coupling",)

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

    @property
    def mutual(self):
        """M in henries."""
        return self.coupling * (self.la.henries * self.lb.henries) ** 0.5

    def stamp(self, ctx) -> None:
        if ctx.mode != "tran":
            return
        m = self.mutual
        factor = _by_phase(ctx.trap, 2.0 * m / ctx.dt, m / ctx.dt)
        for own, other in ((self.la, self.lb), (self.lb, self.la)):
            row = ctx.branch_row(own)
            col = ctx.branch_row(other)
            ctx.set_branch_entry(row, col, -factor)
            ctx.set_branch_rhs(row, -factor * ctx.state(other)["i"])


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
