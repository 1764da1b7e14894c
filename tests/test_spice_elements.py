"""White-box tests for individual element stamps (companion-model math)."""

import sys

import numpy as np
import pytest

from repro.spice import Circuit, Dc, Ramp, transient
from repro.spice.mna import MnaSystem


def context_for(circuit, mode="tran", dt=1e-12, method="be", states=None, x=None):
    system = MnaSystem(circuit)
    x = np.zeros(system.size) if x is None else x
    ctx = system.context(mode, 0.0, dt, method, states if states is not None else {}, x, 1e-12)
    return system, ctx


class TestResistorStamp:
    def test_conductance_pattern(self):
        c = Circuit()
        c.resistor("R1", "a", "b", 2.0)
        _, ctx = context_for(c)
        c.element("R1").stamp(ctx)
        g = 0.5
        a, b = c.node_id("a") - 1, c.node_id("b") - 1
        assert ctx.A[a, a] == pytest.approx(g)
        assert ctx.A[b, b] == pytest.approx(g)
        assert ctx.A[a, b] == pytest.approx(-g)
        assert ctx.A[b, a] == pytest.approx(-g)

    def test_ground_row_skipped(self):
        c = Circuit()
        c.resistor("R1", "a", "0", 2.0)
        _, ctx = context_for(c)
        c.element("R1").stamp(ctx)
        assert ctx.A.shape == (1, 1)
        assert ctx.A[0, 0] == pytest.approx(0.5)


class TestCapacitorCompanion:
    def test_backward_euler_values(self):
        c = Circuit()
        cap = c.capacitor("C1", "a", "0", 2e-12, ic=1.5)
        states = {cap: {"v": 1.5, "i": 0.0}}
        _, ctx = context_for(c, dt=1e-12, method="be", states=states)
        cap.stamp(ctx)
        geq = 2e-12 / 1e-12
        assert ctx.A[0, 0] == pytest.approx(geq)
        assert ctx.z[0] == pytest.approx(geq * 1.5)

    def test_trapezoidal_values(self):
        c = Circuit()
        cap = c.capacitor("C1", "a", "0", 2e-12)
        states = {cap: {"v": 1.0, "i": 0.5e-3}}
        _, ctx = context_for(c, dt=1e-12, method="trap", states=states)
        cap.stamp(ctx)
        geq = 2 * 2e-12 / 1e-12
        assert ctx.A[0, 0] == pytest.approx(geq)
        assert ctx.z[0] == pytest.approx(geq * 1.0 + 0.5e-3)

    def test_first_step_forces_backward_euler(self, monkeypatch):
        """The engine owns the integrator phase: backward Euler on the first
        step after t=0 and after each source breakpoint, trap otherwise."""
        # ``repro.spice.transient`` the attribute is the function; the module
        # is where the engine looks ``newton_solve`` up.
        engine = sys.modules["repro.spice.transient"]
        real = engine.newton_solve
        methods = []

        def spy(system, mode, *args, **kwargs):
            if mode == "tran":
                methods.append(kwargs["method"])
            return real(system, mode, *args, **kwargs)

        monkeypatch.setattr(engine, "newton_solve", spy)
        c = Circuit()
        c.vsource("V1", "in", "0", Ramp(0.0, 1.0, 2e-12, 2e-12))  # corners at 2, 4 ps
        c.resistor("R1", "in", "a", 1e3)
        c.capacitor("C1", "a", "0", 1e-15)
        transient(c, 5e-12, 1e-12)
        assert methods == ["be", "trap", "be", "trap", "be"]

    def test_dc_mode_open(self):
        c = Circuit()
        cap = c.capacitor("C1", "a", "0", 2e-12)
        _, ctx = context_for(c, mode="dc")
        cap.stamp(ctx)
        assert np.all(ctx.A == 0.0)


class TestInductorCompanion:
    def test_branch_rows_backward_euler(self):
        c = Circuit()
        ind = c.inductor("L1", "a", "0", 4e-9, ic=2e-3)
        states = {ind: {"i": 2e-3, "v": 0.0}}
        system, ctx = context_for(c, dt=1e-12, method="be", states=states)
        ind.stamp(ctx)
        row = system.num_node_unknowns  # the branch row
        req = 4e-9 / 1e-12
        assert ctx.A[0, row] == pytest.approx(1.0)  # KCL coupling
        assert ctx.A[row, 0] == pytest.approx(1.0)  # v(a) term
        assert ctx.A[row, row] == pytest.approx(-req)
        assert ctx.z[row] == pytest.approx(-req * 2e-3)

    def test_dc_mode_is_short(self):
        c = Circuit()
        ind = c.inductor("L1", "a", "b", 4e-9)
        system, ctx = context_for(c, mode="dc")
        ind.stamp(ctx)
        row = system.num_node_unknowns
        assert ctx.A[row, row] == 0.0  # no -R term: pure v(a)-v(b)=0


class TestSourceStamps:
    def test_vsource_branch_equation(self):
        c = Circuit()
        v = c.vsource("V1", "a", "0", Dc(3.3))
        system, ctx = context_for(c)
        v.stamp(ctx)
        row = system.num_node_unknowns
        assert ctx.A[row, 0] == pytest.approx(1.0)
        assert ctx.z[row] == pytest.approx(3.3)

    def test_isource_rhs_direction(self):
        c = Circuit()
        i = c.isource("I1", "a", "b", Dc(1e-3))
        _, ctx = context_for(c)
        i.stamp(ctx)
        a, b = c.node_id("a") - 1, c.node_id("b") - 1
        assert ctx.z[a] == pytest.approx(-1e-3)  # current leaves a
        assert ctx.z[b] == pytest.approx(+1e-3)


class TestCommitBookkeeping:
    def test_capacitor_commit_updates_state(self):
        c = Circuit()
        cap = c.capacitor("C1", "a", "0", 1e-12)
        states = {cap: {"v": 0.0, "i": 0.0}}
        system, ctx = context_for(
            c, dt=1e-12, method="be", states=states, x=np.array([2.0])
        )
        cap.stamp(ctx)
        cap.commit(ctx)
        assert states[cap]["v"] == pytest.approx(2.0)
        assert states[cap]["i"] == pytest.approx(1e-12 / 1e-12 * 2.0)
