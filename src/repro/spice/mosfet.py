"""Nonlinear MOSFET element wrapping any :class:`~repro.devices.base.MosfetModel`.

The element contributes the drain-source channel current linearized at the
present Newton iterate:

    Id  ~=  Id0 + gm*(vgs - vgs0) + gds*(vds - vds0) + gmbs*(vbs - vbs0)

which :meth:`MosfetElement.stamp_iterate` stamps as three conductances plus
an equivalent current source at every Newton iterate: eight matrix entries,
whose ground-dropped ``(row, col)`` list (:attr:`MosfetElement.entries`)
the element computes once and stamps through one context call, and two
right-hand-side currents at drain and source.  In the scalar engine the
terminal voltages are Python floats and both calls add into the
:class:`~repro.spice.mna.MnaSystem`'s float accumulators, through the
slots the system planned for this device from ``entries``; every other
context writes its buffers directly.  A small ``gmin`` between drain and source
keeps the Jacobian nonsingular when the device is cut off; it does not
depend on the iterate, so it is the element's :meth:`~MosfetElement.stamp`
and lives in the cached base system.  Per-iteration gate/drain voltage
limiting (a light version of SPICE's ``pnjlim``/``fetlim``) is handled
globally by the Newton damping in :mod:`repro.spice.solver`.

A scalar evaluation goes through two one-entry memos, both matched on the
model's identity and exact float equality of the bias:

* the element's own accepted point.  The scalar engine reads a device's
  current at every accepted point, and the next solve starts from that
  point, so its first iterate stamps at exactly the bias just read.
  :meth:`MosfetElement.current` therefore takes the whole operating point
  there and keeps it;
* the run's last evaluation by any device, ``last_op`` of the per-run
  :class:`~repro.spice.mna.MnaSystem`.  The N identical drivers of an
  explicit bank sit at bit-identical biases (the symmetry Eqns 9-10
  collapse into one device), so the first evaluates and the rest read it.

The batched engine's stacked copies, whose biases are arrays and whose
model is a :class:`MosfetBank`, use neither.

Device parasitic capacitances are intentionally not modeled: the SSN
networks of the paper are dominated by multi-picofarad pad loads and the
nanohenry ground inductance, three orders of magnitude above the
femtofarad-scale channel capacitances of the drivers (see DESIGN.md).
"""

from __future__ import annotations

import numpy as np

from ..devices.base import OperatingPoint
from ..devices.bsim_like import BsimLikeMosfet, stack_models
from .elements import Element


class MosfetElement(Element):
    """Four-terminal NMOS: (drain, gate, source, bulk)."""

    nonlinear = True

    #: ``(model, bias, op)`` of the last scalar :meth:`current` read, or
    #: None.  One attribute, replaced whole and matched on exact float
    #: equality of the bias (and identity of the model), so concurrent
    #: runs never pair one bias with another bias's operating point.
    _memo = None

    def __init__(self, name: str, drain: int, gate: int, source: int, bulk: int, model):
        super().__init__(name, (drain, gate, source, bulk))
        self.model = model
        # The channel's matrix entries as ((row, col), k) with k indexing
        # the value tuple of stamp_iterate: KCL at drain +Id, at source -Id.
        # Ground rows/columns are dropped; a bulk tied to the source keeps
        # its repeated (row, col) pairs, which accumulate in this order.
        d, g, s, b = (node - 1 for node in self.nodes)
        pairs = ((d, g), (d, d), (d, b), (d, s), (s, g), (s, d), (s, b), (s, s))
        self.entries = tuple((rc, k) for k, rc in enumerate(pairs) if min(rc) >= 0)

    def _bias(self, ctx) -> tuple[float, float, float]:
        d, g, s, b = self.nodes
        vs = ctx.v(s)
        return ctx.v(g) - vs, ctx.v(d) - vs, ctx.v(b) - vs

    def stamp(self, ctx) -> None:
        """The drain-source gmin shunt, the only iterate-independent part."""
        d, _, s, _ = self.nodes
        ctx.add_conductance(d, s, ctx.gmin)

    def _operating_point(self, system, bias):
        """``(model, bias, op)`` at a scalar bias: the element's own memo,
        else the run's last evaluation (``system.last_op``), else a fresh
        ``partials`` call that becomes the latter."""
        model = self.model
        memo = self._memo
        if memo is None or memo[0] is not model or memo[1] != bias:
            memo = system.last_op
            if memo is None or memo[0] is not model or memo[1] != bias:
                memo = system.last_op = (model, bias, model.partials(*bias))
        return memo

    def stamp_iterate(self, ctx) -> None:
        """The channel current linearized at the present iterate."""
        bias = vgs, vds, vbs = self._bias(ctx)
        if isinstance(vgs, np.ndarray):  # a stacked copy: no memo
            op = self.model.partials(vgs, vds, vbs)
        else:
            op = self._operating_point(ctx.system, bias)[2]
        gm, gds, gmbs = op.gm, op.gds, op.gmbs
        ieq = op.ids - gm * vgs - gds * vds - gmbs * vbs
        gsum = gm + gds + gmbs
        ctx.add_entries(self.entries, (gm, gds, gmbs, -gsum, -gm, -gds, -gmbs, gsum))
        d, _, s, _ = self.nodes
        ctx.add_rhs_current(d, s, ieq)

    def current(self, ctx):
        """Channel current drain -> source at the present iterate.

        A scalar read takes the whole operating point (see the module
        docstring) and keeps it as the element's memo.  The batched engine
        reads ``(steps, B)`` bias blocks once per run and needs the current
        alone.
        """
        bias = self._bias(ctx)
        if isinstance(bias[0], np.ndarray):
            return self.model.ids_scalar(*bias)
        memo = self._memo = self._operating_point(ctx.system, bias)
        return memo[2].ids


class MosfetBank:
    """Array-in/array-out view of one MOSFET position across B instances.

    The batched ensemble engine (:mod:`repro.spice.batch`) simulates B
    same-topology circuits in lockstep; at each Newton iterate it needs the
    operating points of "the same" device in every instance — devices that
    share terminals and model family but may differ in parameter values
    (width in a driver-count sweep, threshold/mobility in a Monte Carlo
    fleet).  A bank evaluates all B at once, and the batched engine installs
    it as the ``model`` of a stacked :class:`MosfetElement`, so the
    element's own stamps drive the whole ensemble:

    * all instances share one model object: evaluate it directly on
      ``(B,)`` bias arrays (every model's :meth:`ids` is vectorized);
    * all instances use the golden BSIM-like model: stack the parameter
      fields into ``(B,)`` arrays (:func:`repro.devices.bsim_like.stack_models`)
      and evaluate the stacked model once;
    * anything else: a per-instance Python loop — correct for arbitrary
      model mixes, just not vectorized.

    Partials are the model's ``partials_array``, the array twin of the
    scalar engine's :meth:`~repro.devices.base.MosfetModel.partials`
    (analytic for the golden model), so batched Newton iterates track the
    scalar engine's to floating-point noise.
    """

    def __init__(self, elements: list[MosfetElement]):
        if not elements:
            raise ValueError("a MosfetBank needs at least one element")
        self.nodes = elements[0].nodes
        self.name = elements[0].name
        models = [el.model for el in elements]
        self._models: list | None = None
        if all(m is models[0] for m in models):
            self._model = models[0]
        elif all(isinstance(m, BsimLikeMosfet) for m in models):
            self._model = stack_models(models)
        else:
            self._model = None
            self._models = models

    def partials(self, vgs, vds, vbs) -> OperatingPoint:
        """Per-instance operating points; fields are ``(B,)`` arrays."""
        if self._model is not None:
            return self._model.partials_array(vgs, vds, vbs)
        ops = [m.partials(float(g), float(d), float(b))
               for m, g, d, b in zip(self._models, vgs, vds, vbs)]
        return OperatingPoint(
            ids=np.array([op.ids for op in ops]),
            gm=np.array([op.gm for op in ops]),
            gds=np.array([op.gds for op in ops]),
            gmbs=np.array([op.gmbs for op in ops]),
        )

    def ids_scalar(self, vgs, vds, vbs) -> np.ndarray:
        """Per-instance channel currents drain -> source.

        Named after the model call :meth:`MosfetElement.current` makes.
        Instances lie along the last axis: ``(B,)`` biases at one step, or
        ``(steps, B)`` recorded samples evaluated after the run.
        """
        if self._model is not None:
            return np.asarray(self._model.ids(vgs, vds, vbs), dtype=float)
        out = np.empty(np.shape(vgs))
        for k, m in enumerate(self._models):
            g, d, b = vgs[..., k], vds[..., k], vbs[..., k]
            out[..., k] = np.reshape([
                m.ids_scalar(float(gi), float(di), float(bi))
                for gi, di, bi in zip(g.flat, d.flat, b.flat)
            ], g.shape)
        return out
