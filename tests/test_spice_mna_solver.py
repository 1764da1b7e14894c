"""Direct unit tests for MNA assembly and the Newton solver."""

import numpy as np
import pytest

from repro.spice import Circuit, ConvergenceError, Dc
from repro.spice.mna import MnaSystem
from repro.spice.solver import newton_solve


def divider():
    c = Circuit()
    c.vsource("V1", "top", "0", Dc(10.0))
    c.resistor("R1", "top", "mid", 3e3)
    c.resistor("R2", "mid", "0", 1e3)
    return c


class TestMnaSystem:
    def test_unknown_counts(self):
        c = divider()
        system = MnaSystem(c)
        assert system.num_node_unknowns == 2  # top, mid
        assert system.num_branch_unknowns == 1  # the V source
        assert system.size == 3

    def test_branch_assignment(self):
        c = Circuit()
        c.vsource("V1", "a", "0", Dc(1.0))
        c.inductor("L1", "a", "b", 1e-9)
        c.resistor("R1", "b", "0", 10.0)
        system = MnaSystem(c)
        v = c.element("V1")
        ind = c.element("L1")
        r = c.element("R1")
        assert v.branch_start == 0
        assert ind.branch_start == 1
        assert r.branch_start is None
        assert system.num_branch_unknowns == 2

    def test_assembled_matrix_structure(self):
        c = divider()
        system = MnaSystem(c)
        x = np.zeros(system.size)
        ctx = system.context("dc", 0.0, 1.0, "be", {}, x, 1e-12)
        system.assemble_base(ctx)  # the divider is all linear
        g1, g2 = 1 / 3e3, 1 / 1e3
        top = c.node_id("top") - 1
        mid = c.node_id("mid") - 1
        assert ctx.A[top, top] == pytest.approx(g1)
        assert ctx.A[mid, mid] == pytest.approx(g1 + g2)
        assert ctx.A[top, mid] == pytest.approx(-g1)
        # Branch row: v(top) = 10.
        row = system.num_node_unknowns
        assert ctx.A[row, top] == pytest.approx(1.0)
        assert ctx.z[row] == pytest.approx(10.0)

    def test_context_voltage_accessor(self):
        c = divider()
        system = MnaSystem(c)
        x = np.array([10.0, 2.5, -2.5e-3])
        ctx = system.context("dc", 0.0, 1.0, "be", {}, x, 1e-12)
        assert ctx.v(0) == 0.0
        assert ctx.v(c.node_id("mid")) == 2.5


class TestNewtonSolver:
    def test_linear_circuit_converges_fast(self):
        c = divider()
        system = MnaSystem(c)
        x, ctx = newton_solve(system, "dc", 0.0, 1.0, "be", {}, np.zeros(system.size))
        assert x[c.node_id("mid") - 1] == pytest.approx(2.5)

    def test_iteration_budget_enforced(self):
        """An impossible budget raises ConvergenceError, not a hang."""
        from repro.devices import BsimLikeMosfet

        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.resistor("R1", "vdd", "d", 1e3)
        c.mosfet("M1", "d", "vdd", "0", "0", BsimLikeMosfet())
        system = MnaSystem(c)
        with pytest.raises(ConvergenceError):
            newton_solve(
                system, "dc", 0.0, 1.0, "be", {}, np.zeros(system.size), max_iter=1
            )

    def test_damping_limits_update(self):
        """Large initial error still converges thanks to step limiting."""
        from repro.devices import BsimLikeMosfet

        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.resistor("R1", "vdd", "d", 100.0)
        c.mosfet("M1", "d", "vdd", "0", "0", BsimLikeMosfet())
        system = MnaSystem(c)
        # A badly wrong start: damping walks it home at <= 0.5 V/iteration.
        x0 = np.full(system.size, 5.0)
        x, _ = newton_solve(system, "dc", 0.0, 1.0, "be", {}, x0)
        assert 0.0 < x[c.node_id("d") - 1] < 1.8

    def test_singular_system_falls_back_to_lstsq(self):
        """A floating node (all-gmin) still produces a finite solution."""
        c = Circuit()
        c.resistor("R1", "a", "b", 1e3)  # a-b floating island
        c.resistor("R2", "b", "a", 1e3)
        system = MnaSystem(c)
        x, _ = newton_solve(system, "dc", 0.0, 1.0, "be", {}, np.zeros(system.size))
        assert np.all(np.isfinite(x))
