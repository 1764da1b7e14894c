"""Per-instance parity tests for the adaptive batched lockstep engine.

Adaptive stepping used to be a ``BatchIncompatibleError``; it now runs in
lockstep through phase-aligned step-doubling rounds with per-instance step
masks (:func:`repro.spice.batch._adaptive_lockstep`).  The contract this
file enforces: every instance of a batched adaptive run takes *exactly*
the step sequence the scalar adaptive engine would take for that circuit
alone — identical accepted/rejected/retried counts, identical Newton
effort — with waveforms within the engine's 1e-9 golden-parity budget
(converged iterates differ only at rounding between the two assembly
orders, so bitwise time equality is not part of the contract).
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.engine import resolve_engine
from repro.analysis.simulate import default_stop_time, default_time_step
from repro.spice import Circuit, Ramp
from repro.spice import batch as batch_mod
from repro.spice.batch import batch_transient
from repro.spice.transient import TransientOptions, transient

from .test_spice_batch import _nan_row_after

#: Batched adaptive waveforms must stay within this of the scalar engine.
PARITY_TOL = 1e-9

#: Accepted times agree far tighter than the voltage budget: the step
#: controller sees rounding-level err differences only through the cube
#: root, so the grids coincide to ~1e-22 s.  1e-18 s leaves four orders
#: of margin while still catching any real controller divergence.
TIME_TOL = 1e-18

#: Reactive-element currents go through the companion conductance
#: (geq = 2C/h reaches several siemens at sub-picosecond half-steps),
#: which amplifies the rounding-level voltage differences between the two
#: assembly orders; their budget scales accordingly.
CURRENT_TOL = 1e-7

#: Telemetry counters that must match the scalar engine *exactly* per
#: instance — the step controller's full decision record.
PARITY_COUNTERS = (
    "accepted_steps",
    "step_rejections",
    "step_retries",
    "lte_rejections",
    "newton_solves",
    "newton_iterations",
)


def _driver_specs(tech, counts, **kwargs):
    base = DriverBankSpec(
        technology=tech, n_drivers=1, inductance=5e-9, rise_time=0.2e-9, **kwargs
    )
    return [dataclasses.replace(base, n_drivers=n) for n in counts]


def _grid(spec, coarsen=4.0):
    return default_stop_time(spec), coarsen * default_time_step(spec)


def _assert_adaptive_parity(scalar, batched, tol=PARITY_TOL):
    for s, b in zip(scalar, batched):
        for counter in PARITY_COUNTERS:
            sv = getattr(s.telemetry, counter)
            bv = getattr(b.telemetry, counter)
            assert sv == bv, f"{counter}: scalar {sv} != batched {bv}"
        assert len(s.times) == len(b.times)
        assert np.max(np.abs(s.times - b.times)) <= TIME_TOL
        for node in s.node_names:
            dv = np.max(np.abs(s.voltage(node).y - b.voltage(node).y))
            assert dv <= tol, f"node {node}: |dV| = {dv:.3e} V"
        for name in sorted(s._currents):
            di = np.max(np.abs(s.current(name).y - b.current(name).y))
            assert di <= CURRENT_TOL, f"current {name}: |dI| = {di:.3e} A"


def _run_pair(circuits_factory, tstop, dt, options):
    scalar = [transient(c, tstop, dt, options=options)
              for c in circuits_factory()]
    batched = batch_transient(circuits_factory(), tstop, dt, options=options)
    return scalar, batched


class TestAdaptivePerInstanceParity:
    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_driver_ensemble(self, tech018, method):
        specs = _driver_specs(tech018, [1, 7, 19])
        tstop, dt = _grid(specs[0])
        options = TransientOptions(adaptive=True, method=method)
        scalar, batched = _run_pair(
            lambda: [build_driver_bank(s) for s in specs], tstop, dt, options)
        _assert_adaptive_parity(scalar, batched)
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)
        assert all(b.telemetry.extras.get("backend_dense_lu") == 1
                   for b in batched)

    def test_instances_step_independently(self, tech018):
        """The lockstep rounds are phase-aligned, not step-aligned: each
        instance keeps its own (t, h) and the ensemble must NOT be forced
        onto a shared grid.  Different driver counts stress the supply
        bounce differently, so their accepted-step counts diverge."""
        specs = _driver_specs(tech018, [1, 5, 13, 29])
        tstop, dt = _grid(specs[0])
        options = TransientOptions(adaptive=True)
        batched = batch_transient(
            [build_driver_bank(s) for s in specs], tstop, dt, options=options)
        accepted = [b.telemetry.accepted_steps for b in batched]
        assert all(a > 0 for a in accepted)
        assert len(set(accepted)) > 1, f"instances moved in lockstep: {accepted}"

    def test_linear_only_ensemble(self):
        """Linear ensembles take the direct-solve branch of each round:
        Newton iteration counters stay zero, parity must still hold."""
        def make():
            circuits = []
            for r in (10.0, 25.0, 80.0):
                c = Circuit("rlc")
                c.vsource("Vin", "in", "0", Ramp(0.0, 1.8, 0.1e-9, 0.2e-9))
                c.resistor("R1", "in", "mid", r)
                c.inductor("L1", "mid", "out", 4e-9, ic=0.0)
                c.capacitor("C1", "out", "0", 3e-12, ic=0.0)
                circuits.append(c)
            return circuits

        options = TransientOptions(adaptive=True)
        scalar, batched = _run_pair(make, 2.0e-9, 0.05e-9, options)
        _assert_adaptive_parity(scalar, batched)
        assert all(b.telemetry.newton_iterations == 0 for b in batched)

    def test_mask_steps_telemetry(self, tech018):
        """mask_steps counts the big/half/half phase rounds an instance
        stayed pending through — an adaptive-batch-only diagnostic that is
        zero on the scalar path and on fixed-step lockstep runs."""
        specs = _driver_specs(tech018, [1, 7])
        tstop, dt = _grid(specs[0])
        scalar, batched = _run_pair(
            lambda: [build_driver_bank(s) for s in specs], tstop, dt,
            TransientOptions(adaptive=True))
        assert all(s.telemetry.mask_steps == 0 for s in scalar)
        for b in batched:
            # Every accepted step consumed at least one phase round.
            assert b.telemetry.mask_steps >= b.telemetry.accepted_steps
            assert "adaptive-batch mask steps" in b.telemetry.format_report()

    def test_fixed_step_runs_keep_mask_steps_zero(self, tech018):
        specs = _driver_specs(tech018, [1, 7])
        tstop, dt = _grid(specs[0])
        batched = batch_transient(
            [build_driver_bank(s) for s in specs], tstop, dt)
        assert all(b.telemetry.mask_steps == 0 for b in batched)


class TestPairedStepDoubling:
    """Each round solves the full step and the first half step in one
    Newton call over two copies of the ensemble, then the second half step
    on the second copy."""

    def test_each_round_makes_two_newton_calls(self, tech018, monkeypatch):
        calls = []
        newton = batch_mod._Ensemble.newton

        def counted(self, *args):
            calls.append(args[0])
            return newton(self, *args)

        monkeypatch.setattr(batch_mod._Ensemble, "newton", counted)
        specs = _driver_specs(tech018, [2, 9, 16])
        tstop, dt = _grid(specs[0])
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop,
                                  dt, options=TransientOptions(adaptive=True))
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)
        # An instance is pending for a prefix of the rounds, so the round
        # count is the largest per-instance mask_steps.
        rounds = max(b.telemetry.mask_steps for b in batched)
        assert rounds > 0
        assert calls == ["ic"] + ["tran"] * (2 * rounds)

    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_full_step_failing_on_some_lanes_keeps_scalar_counters(
            self, tech018, method):
        """With max_newton=5 only the N = 8 bank fails Newton at the
        half-rise step.  Its first half step was solved alongside the failed
        full step, but the scalar controller never takes it, so its effort
        must not be counted: every instance's counters equal the scalar
        engine's."""
        base = DriverBankSpec(technology=tech018, n_drivers=1, inductance=5e-9,
                              rise_time=0.2e-9, capacitance=2e-12,
                              load_capacitance=10e-12)
        specs = [dataclasses.replace(base, n_drivers=n) for n in (1, 2, 8, 4)]
        tstop, dt = default_stop_time(base), base.rise_time / 2
        options = TransientOptions(max_newton=5, adaptive=True, method=method)
        scalar, batched = _run_pair(
            lambda: [build_driver_bank(s) for s in specs], tstop, dt, options)
        assert [s.telemetry.step_rejections > 0 for s in scalar] == [
            False, False, True, False]
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)
        _assert_adaptive_parity(scalar, batched)


class TestScalarFallback:
    def test_failed_instances_rerun_on_scalar_ladder(self, tech018, monkeypatch):
        """Sabotaged batched solves fail every instance out of the adaptive
        lockstep loop (IC solve first); each is transparently re-run on the
        scalar adaptive engine, so results are bitwise-equal to scalar."""
        monkeypatch.setattr(batch_mod, "_solve_stack",
                            lambda A, z: np.full(z.shape, np.nan))

        specs = _driver_specs(tech018, [3, 11])
        tstop, dt = _grid(specs[0])
        options = TransientOptions(adaptive=True)
        scalar = [transient(build_driver_bank(s), tstop, dt, options=options)
                  for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs],
                                  tstop, dt, options=options)
        for s, b in zip(scalar, batched):
            assert np.array_equal(s.times, b.times)
            for node in s.node_names:
                assert np.array_equal(s.voltage(node).y, b.voltage(node).y)
            assert b.telemetry.batch_fallbacks == 1

    def test_one_failed_instance_leaves_neighbours_in_lockstep(
            self, tech018, monkeypatch):
        """A single lane failing mid-run halves its own step down to
        ``min_dt`` and falls back alone; instances 0 and 2 keep taking the
        scalar adaptive engine's exact step sequence in lockstep."""
        monkeypatch.setattr(batch_mod, "_solve_stack",
                            _nan_row_after(batch_mod._solve_stack, calls=40, row=1))

        specs = _driver_specs(tech018, [3, 11, 20])
        tstop, dt = _grid(specs[0])
        options = TransientOptions(adaptive=True)
        scalar = [transient(build_driver_bank(s), tstop, dt, options=options)
                  for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs],
                                  tstop, dt, options=options)

        s, b = scalar[1], batched[1]
        assert np.array_equal(s.times, b.times)
        for node in s.node_names:
            assert np.array_equal(s.voltage(node).y, b.voltage(node).y)
        assert b.telemetry.batch_fallbacks == 1
        for k in (0, 2):
            _assert_adaptive_parity([scalar[k]], [batched[k]])
            assert batched[k].telemetry.batch_fallbacks == 0


class TestEngineRouting:
    def test_auto_routes_adaptive_ensembles_to_batch(self):
        """engine="auto" no longer needs a fixed-step carve-out: adaptive
        sweeps/Monte Carlo fleets resolve to the batched engine like any
        other multi-instance run."""
        assert resolve_engine("auto", n_items=8) == "batch"
        assert resolve_engine("batch", n_items=8) == "batch"
