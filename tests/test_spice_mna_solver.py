"""Direct unit tests for MNA assembly and the Newton solver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.spice import Circuit, ConvergenceError, Dc
from repro.spice.mna import MnaSystem
from repro.spice.solver import DEFAULT_MAX_UPDATE, newton_control, newton_solve


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

    def test_reads_follow_every_new_x(self):
        """Reads come from a float copy of ``x`` matched to it by identity:
        a context given a new ``x`` never reads through the old copy."""
        c = divider()
        system = MnaSystem(c)
        source = c.element("V1")
        mid = c.node_id("mid")
        ctx = system.context("dc", 0.0, 1.0, "be", {},
                             np.array([10.0, 2.5, -2.5e-3]), 1e-12)
        assert (ctx.v(mid), ctx.branch_value(source)) == (2.5, -2.5e-3)
        ctx.x = np.array([10.0, 3.5, -3.5e-3])
        assert (ctx.v(mid), ctx.branch_value(source)) == (3.5, -3.5e-3)
        x = np.array([1.0, 0.5, 1e-3])
        ctx.at(x, x.tolist())
        assert (ctx.v(mid), ctx.branch_value(source)) == (0.5, 1e-3)
        ctx.x = np.array([1.0, 0.25, 2e-3])
        assert (ctx.v(mid), ctx.branch_value(source)) == (0.25, 2e-3)
        assert type(ctx.v(mid)) is float


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


def _numpy_control(x, x_new, abstol, reltol, max_update):
    """The array form of one Newton update's control, as the solver loop
    wrote it before its control moved to floats: the reference
    :func:`newton_control` must match bit for bit."""
    dx = x_new - x
    adx = np.abs(dx)
    step = float(adx.max())
    if not math.isfinite(step):
        return None
    if step > max_update:
        return step, x + dx * (max_update / step), False
    return step, x_new, bool((adx <= abstol + reltol * np.abs(x_new)).all())


@st.composite
def _updates(draw):
    """An iterate and a solve's answer: updates from zero to far past the
    damping cap, or near each unknown's convergence tolerance, sometimes
    with a non-finite entry."""
    n = draw(st.integers(1, 200))
    x = draw(arrays(np.float64, n, elements=st.floats(-5.0, 5.0)))
    noise = draw(arrays(np.float64, n, elements=st.floats(-1.5, 1.5)))
    if draw(st.booleans()):
        scale = draw(st.sampled_from(
            [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.3, DEFAULT_MAX_UPDATE, 0.6, 10.0, 1e300]))
        x_new = x + scale * noise
    else:
        x_new = x + noise * (1e-9 + 1e-6 * np.abs(x))
    bad = draw(st.sampled_from([None] * 7 + [math.nan, math.inf, -math.inf]))
    if bad is not None:
        x_new[draw(st.integers(0, n - 1))] = bad
    return x, x_new


class TestNewtonControl:
    @settings(max_examples=300, deadline=None)
    @given(update=_updates())
    def test_matches_the_array_formulas_bitwise(self, update):
        x, x_new = update
        args = (1e-9, 1e-6, DEFAULT_MAX_UPDATE)
        ref = _numpy_control(x, x_new, *args)
        x_next, step, converged = newton_control(x.tolist(), x_new.tolist(), *args)
        if ref is None:
            assert x_next is None
            return
        ref_step, ref_next, ref_converged = ref
        assert step.hex() == ref_step.hex()
        assert np.array(x_next).tobytes() == ref_next.tobytes()
        assert converged is ref_converged

    @pytest.mark.parametrize("x, x_new", [
        ([-1e308, 0.0], [1e308, 0.0]),  # the update itself overflows
        ([0.0, 0.0], [1e308, 1e308]),  # finite updates, overflowing sum
        ([0.0], [0.0]),
    ])
    def test_extreme_updates_match_the_array_formulas(self, x, x_new):
        args = (1e-9, 1e-6, DEFAULT_MAX_UPDATE)
        with np.errstate(over="ignore"):
            ref = _numpy_control(np.array(x), np.array(x_new), *args)
        x_next, step, converged = newton_control(x, x_new, *args)
        if ref is None:
            assert x_next is None
        else:
            assert (step, x_next, converged) == (ref[0], ref[1].tolist(), ref[2])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("at", [1, 3])
    def test_non_finite_solution_raises_at_its_iterate(self, monkeypatch, bad,
                                                      where, at):
        """A non-finite entry anywhere in one solve's answer stops the
        solve at that iterate, whatever the other entries hold."""
        from repro.devices import BsimLikeMosfet

        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.resistor("R1", "vdd", "d", 100.0)
        c.mosfet("M1", "d", "vdd", "0", "0", BsimLikeMosfet())
        system = MnaSystem(c)
        index = {"first": 0, "middle": system.size // 2, "last": -1}[where]
        solve, calls = system.solve, []

        def poisoned(A, z):
            x = solve(A, z)
            calls.append(None)
            if len(calls) == at:
                x[index] = bad
            return x

        monkeypatch.setattr(system, "solve", poisoned)
        x0 = np.full(system.size, 5.0)  # damped iterates before the bad one
        with pytest.raises(ConvergenceError, match="non-finite solution"):
            newton_solve(system, "dc", 0.0, 1.0, "be", {}, x0)
        assert system.telemetry.newton_iterations == at


class TestKeptBaseMatrix:
    """The base matrix is kept while ``(mode, dt, method, gmin)``
    repeats and restamped on every key change; after each pass it equals a
    fresh system's stamp bit for bit."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Every stamp_base call, checked against a fresh MnaSystem;
        returns the list of (key, kept) pairs seen."""
        seen = []
        original = MnaSystem.stamp_base

        def spy(self, mode, t, dt, method, states, x, gmin):
            key = (mode, dt, method, gmin)
            kept = key == self._base_key
            ctx = original(self, mode, t, dt, method, states, x, gmin)
            fresh = MnaSystem(self.circuit)
            snapshot = {el: dict(state) for el, state in states.items()}
            original(fresh, mode, t, dt, method, snapshot, x, gmin)
            assert self._base_A.tobytes() == fresh._base_A.tobytes(), key
            assert self._base_z.tobytes() == fresh._base_z.tobytes(), key
            seen.append((key, kept))
            return ctx

        monkeypatch.setattr(MnaSystem, "stamp_base", spy)
        return seen

    @staticmethod
    def _changes(seen):
        """The key fields that changed between consecutive solves."""
        fields = ("mode", "dt", "method", "gmin")
        return [{f for f, a, b in zip(fields, prev, key) if a != b}
                for (prev, _), (key, _) in zip(seen, seen[1:])]

    def test_transient_key_changes_restamp(self, checked):
        """ic -> tran (mode), BE restarts at breakpoints (method) and step
        halving after a Newton failure (dt) each drop the kept matrix."""
        from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
        from repro.analysis.simulate import default_stop_time
        from repro.process import TSMC018
        from repro.spice.transient import TransientOptions, transient

        spec = DriverBankSpec(technology=TSMC018, n_drivers=3, inductance=5e-9,
                              rise_time=0.2e-9, capacitance=2e-12,
                              load_capacitance=10e-12, collapse=False)
        result = transient(build_driver_bank(spec), default_stop_time(spec),
                           spec.rise_time, options=TransientOptions(max_newton=5))
        assert result.telemetry.step_rejections > 0  # the ladder ran
        changes = self._changes(checked)
        assert {"mode", "gmin"} in changes  # the ic solve runs at gmin >= 1e-9
        assert {"method"} in changes
        assert {"dt"} in changes
        assert any(kept for _, kept in checked)
        # Each solve after a key change restamped the matrix.
        for change, (_, kept) in zip(changes, checked[1:]):
            assert kept == (not change)

    def test_gmin_ladder_restamps(self, checked):
        from repro.devices import BsimLikeMosfet
        from repro.spice.dc import dc_operating_point
        from repro.testing import faults

        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.resistor("R1", "vdd", "d", 1e3)
        c.mosfet("M1", "d", "vdd", "0", "0", BsimLikeMosfet())
        # Fail the direct solve so the gmin ladder runs on the same system.
        rules = faults.install_faults([faults.FaultRule("newton", at=0)],
                                      mirror_env=False)
        try:
            sol = dc_operating_point(c)
        finally:
            faults.clear_faults()
        assert rules[0].fired == 1
        assert sol.telemetry.gmin_steps == 10
        assert self._changes(checked) == [{"gmin"}] * 9
        assert not any(kept for _, kept in checked)


class TestDeviceStamps:
    def _bank(self, model):
        """A driver whose bulk is tied to its source: repeated entries."""
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.vsource("Vin", "in", "0", Dc(1.2))
        c.resistor("Rd", "vdd", "d", 1e3)
        c.inductor("Lg", "s", "0", 1e-9)
        c.mosfet("M1", "d", "in", "s", "s", model)
        return c

    def test_one_call_stamp_equals_eight_sequential_writes(self):
        from repro.devices import BsimLikeMosfet

        c = self._bank(BsimLikeMosfet())
        system = MnaSystem(c)
        el = c.element("M1")
        x = np.linspace(0.1, 0.9, system.size)
        ctx = system.context("dc", 0.0, 1.0, "be", {}, x, 1e-12)
        el.stamp_iterate(ctx)

        ref = system.context("dc", 0.0, 1.0, "be", {}, x, 1e-12)
        d, g, s, b = el.nodes
        vs = ref.v(s)
        op = el.model.partials(ref.v(g) - vs, ref.v(d) - vs, ref.v(b) - vs)
        gsum = op.gm + op.gds + op.gmbs
        for row, col, value in ((d, g, op.gm), (d, d, op.gds), (d, b, op.gmbs),
                                (d, s, -gsum), (s, g, -op.gm), (s, d, -op.gds),
                                (s, b, -op.gmbs), (s, s, gsum)):
            ref.add_node_entry(row, col, value)
        assert ctx.A.tobytes() == ref.A.tobytes()
        assert len(el.entries) == 8  # no terminal grounded, bulk on source


class _CountingModel:
    """A device that counts its operating-point evaluations (the golden
    model unless another is given)."""

    def __init__(self, inner=None):
        from repro.devices import BsimLikeMosfet

        self.inner = BsimLikeMosfet() if inner is None else inner
        self.calls = 0

    def partials(self, vgs, vds, vbs=0.0):
        self.calls += 1
        return self.inner.partials(vgs, vds, vbs)


class TestAcceptedPointMemo:
    def _setup(self, n_devices=1):
        model = _CountingModel()
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        c.resistor("Rd", "vdd", "d", 1e3)
        for k in range(n_devices):
            c.mosfet(f"M{k}", "d", "vdd", "0", "0", model)
        system = MnaSystem(c)
        x = np.array([1.8, 0.7, -1e-3])[:system.size]
        return c, system, model, x

    def test_current_then_stamp_at_same_bias_evaluates_once(self):
        c, system, model, x = self._setup()
        el = c.element("M0")
        ctx = system.context("tran", 0.0, 1e-12, "be", {}, x.copy(), 1e-12)
        ids = el.current(ctx)
        assert model.calls == 1
        el.stamp_iterate(ctx)
        assert model.calls == 1  # served from the memo
        assert ids == model.inner.partials(*el._bias(ctx)).ids

    def test_one_ulp_away_re_evaluates(self):
        c, system, model, x = self._setup()
        el = c.element("M0")
        el.current(system.context("tran", 0.0, 1e-12, "be", {}, x.copy(), 1e-12))
        nudged = x.copy()
        node = c.node_id("d") - 1
        nudged[node] = np.nextafter(nudged[node], np.inf)
        ctx = system.context("tran", 0.0, 1e-12, "be", {}, nudged, 1e-12)
        ctx.A[:] = 0.0
        el.stamp_iterate(ctx)
        assert model.calls == 2
        # ... and stamps the nudged bias's own operating point.
        fresh = system.context("tran", 0.0, 1e-12, "be", {}, nudged, 1e-12)
        fresh.A[:] = 0.0
        el._memo = None
        el.stamp_iterate(fresh)
        assert ctx.A.tobytes() == fresh.A.tobytes()
        assert ctx.z.tobytes() == fresh.z.tobytes()

    def test_devices_at_one_bias_share_one_evaluation(self):
        """Two devices on one model at one bias: the second reads the run's
        last evaluation, without taking it as its own accepted point."""
        c, system, model, x = self._setup(n_devices=2)
        first, second = c.element("M0"), c.element("M1")
        ctx = system.context("tran", 0.0, 1e-12, "be", {}, x.copy(), 1e-12)
        first.current(ctx)
        second.stamp_iterate(ctx)
        assert model.calls == 1
        assert second._memo is None
        assert system.last_op is first._memo
        first.stamp_iterate(ctx)
        assert second.current(ctx) == first.current(ctx)
        assert model.calls == 1
        # The entry belongs to the run: a new system starts without one.
        assert MnaSystem(c).last_op is None

    def test_second_device_one_ulp_away_re_evaluates(self):
        """The shared entry matches on exact bias: a device one ulp away
        evaluates again and stamps its own operating point."""
        model = _CountingModel()
        c = Circuit()
        c.vsource("Vdd", "vdd", "0", Dc(1.8))
        for k in range(2):
            c.resistor(f"R{k}", "vdd", f"d{k}", 1e3)
            c.mosfet(f"M{k}", f"d{k}", "vdd", "0", "0", model)
        system = MnaSystem(c)
        x = np.full(system.size, 0.7)
        x[c.node_id("vdd") - 1] = 1.8
        node = c.node_id("d1") - 1
        x[node] = np.nextafter(x[node], np.inf)
        first, second = c.element("M0"), c.element("M1")
        first.stamp_iterate(system.context("tran", 0.0, 1e-12, "be", {}, x, 1e-12))
        ctx = system.context("tran", 0.0, 1e-12, "be", {}, x, 1e-12)
        second.stamp_iterate(ctx)
        assert model.calls == 2
        assert system.last_op[1] == second._bias(ctx)
        # ... the same stamp an evaluation in a fresh run gives.
        fresh = MnaSystem(c).context("tran", 0.0, 1e-12, "be", {}, x, 1e-12)
        second.stamp_iterate(fresh)
        assert model.calls == 3
        assert ctx.A.tobytes() == fresh.A.tobytes()
        assert ctx.z.tobytes() == fresh.z.tobytes()

    def test_explicit_bank_evaluates_once_per_iterate(self, tech018):
        """N identical drivers sit at bit-identical biases: an N=13
        explicit bank evaluates about once per Newton iterate and accepted
        point, where a per-device count would be N times that."""
        from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
        from repro.analysis.simulate import default_stop_time, default_time_step
        from repro.spice.transient import transient

        spec = DriverBankSpec(technology=tech018, n_drivers=13, inductance=5e-9,
                              rise_time=0.2e-9, collapse=False)
        c = build_driver_bank(spec)
        devices = [el for el in c.elements if el.nonlinear]
        assert len(devices) == 13
        model = _CountingModel(devices[0].model)
        for el in devices:
            el.model = model
        result = transient(c, default_stop_time(spec), default_time_step(spec))
        tel = result.telemetry
        assert 0 < model.calls <= tel.newton_iterations + tel.accepted_steps + 1

    def test_memo_never_read_through_another_model(self):
        c, system, model, x = self._setup()
        el = c.element("M0")
        ctx = system.context("tran", 0.0, 1e-12, "be", {}, x.copy(), 1e-12)
        el.current(ctx)
        other = _CountingModel()
        el.model = other
        el.stamp_iterate(ctx)
        assert other.calls == 1


def _bank_run(**fields):
    """A driver bank's circuit with its default stop time and step."""
    from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
    from repro.analysis.simulate import default_stop_time, default_time_step
    from repro.process import TSMC018

    spec = DriverBankSpec(technology=TSMC018, inductance=5e-9, rise_time=0.5e-9,
                          **fields)
    return build_driver_bank(spec), default_stop_time(spec), default_time_step(spec)


def _ladder_run():
    from repro.testing.netlists import ladder_circuit

    return ladder_circuit(160), 0.5e-9, 0.02e-9


class TestAccumulatedStamps:
    """Device stamps accumulate on floats and land in one indexed write;
    each accepted step commits and records in one element pass.  Both are
    checked at every iterate and step of full transients."""

    @pytest.fixture
    def iterates(self, monkeypatch):
        """Every stamp_iterate checked against the base plus each device
        stamped through a direct-write context at the same ``x``; returns
        a list with one entry per iterate checked."""
        checked = []
        original = MnaSystem.stamp_iterate

        def spy(self, ctx, x, xs=None):
            A, z = original(self, ctx, x, xs)
            ref_A, ref_z = self._base_A.copy(), self._base_z.copy()
            ref = self.context(ctx.mode, ctx.t, ctx.dt, "trap" if ctx.trap else "be",
                               ctx._states, x.copy(), ctx.gmin,
                               buffers=(ref_A, ref_z))
            for el in self.devices:
                el.stamp_iterate(ref)
            assert A.tobytes() == ref_A.tobytes()
            assert z.tobytes() == ref_z.tobytes()
            checked.append(None)
            return A, z

        monkeypatch.setattr(MnaSystem, "stamp_iterate", spy)
        return checked

    @pytest.fixture
    def read_before_commit(self, monkeypatch):
        """Per element name, ``current`` read at each accepted step's
        context before the first commit of that step."""
        from repro.spice.elements import Capacitor, Element, Inductor

        read: dict[str, list] = {}
        last = [None]

        def wrap(original):
            def spy(self, ctx):
                if ctx is not last[0]:
                    last[0] = ctx
                    for el in ctx.system.circuit.elements:
                        if hasattr(el, "current"):
                            read.setdefault(el.name, []).append(el.current(ctx))
                return original(self, ctx)
            return spy

        for cls in (Element, Capacitor, Inductor):
            monkeypatch.setattr(cls, "commit", wrap(cls.__dict__["commit"]))
        return read

    @pytest.mark.parametrize("run", [
        lambda: _bank_run(n_drivers=8, capacitance=2e-12),
        lambda: _bank_run(n_drivers=13, collapse=False),
        lambda: _bank_run(n_drivers=7,
                          input_offsets=tuple(0.02e-9 * k for k in range(7))),
        _ladder_run,
    ], ids=["collapsed-bank", "explicit-bank-N13", "skewed-N7", "ladder160"])
    def test_full_transient(self, iterates, read_before_commit, run):
        from repro.spice.transient import transient

        circuit, tstop, dt = run()
        result = transient(circuit, tstop, dt)
        assert len(iterates) == result.telemetry.newton_iterations > 0
        steps = result.telemetry.accepted_steps
        measured = [el.name for el in circuit.elements if hasattr(el, "current")]
        assert sorted(read_before_commit) == sorted(measured)
        for name in measured:
            recorded = result.current(name).y[1:]
            assert len(read_before_commit[name]) == steps
            assert np.array(read_before_commit[name], dtype=float).tobytes() \
                == recorded.tobytes(), name
