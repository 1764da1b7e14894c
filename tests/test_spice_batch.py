"""Golden-parity, telemetry and compatibility tests for the batched engine.

The lockstep ensemble engine (:func:`repro.spice.batch.batch_transient`)
simulates many same-topology circuits through one vectorized Newton loop.
It must reproduce the scalar fast path to within 1e-9 V / 1e-9 A per
instance — the same contract ``test_spice_fastpath`` holds the fast path
to against the seed engine — and its per-instance telemetry must agree
with the scalar path's counters, so ensemble observability survives the
vectorization.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.simulate import default_stop_time, default_time_step
from repro.core.asdm import AsdmMosfet
from repro.spice import Circuit, Dc, Ramp
from repro.spice import batch as batch_mod
from repro.spice.batch import (
    BatchIncompatibleError,
    batch_transient,
    lockstep_signature,
)
from repro.spice.mosfet import MosfetBank
from repro.spice.transient import TransientOptions, transient

#: Batched waveforms must stay within this of the scalar fast path.
PARITY_TOL = 1e-9


def _driver_specs(tech, counts, **kwargs):
    base = DriverBankSpec(
        technology=tech, n_drivers=1, inductance=5e-9, rise_time=0.2e-9, **kwargs
    )
    return [dataclasses.replace(base, n_drivers=n) for n in counts]


def _grid(spec, coarsen=4.0):
    return default_stop_time(spec), coarsen * default_time_step(spec)


def _assert_results_match(scalar, batched, tol=PARITY_TOL):
    for s, b in zip(scalar, batched):
        assert np.array_equal(s.times, b.times), "step sequences diverged"
        for node in s.node_names:
            dv = np.max(np.abs(s.voltage(node).y - b.voltage(node).y))
            assert dv <= tol, f"node {node}: |dV| = {dv:.3e} V"


def _nan_row_after(solve, calls, row):
    """Wrap a batched solve so ``row`` comes back NaN after ``calls`` calls."""
    count = 0

    def wrapped(A, z):
        nonlocal count
        count += 1
        out = solve(A, z)
        if count > calls:
            out[row] = np.nan
        return out

    return wrapped


class TestLockstepSignature:
    def test_same_topology_different_parameters_share_signature(self, tech018):
        specs = _driver_specs(tech018, [1, 7, 19])
        sigs = {lockstep_signature(build_driver_bank(s)) for s in specs}
        assert len(sigs) == 1

    def test_different_topologies_differ(self, tech018):
        with_c, without_c = _driver_specs(tech018, [4, 4])
        with_c = dataclasses.replace(with_c, capacitance=2e-12)
        assert lockstep_signature(build_driver_bank(with_c)) != lockstep_signature(
            build_driver_bank(without_c)
        )

    def test_different_breakpoints_differ(self, tech018):
        fast_edge, slow_edge = _driver_specs(tech018, [4, 4])
        slow_edge = dataclasses.replace(slow_edge, rise_time=0.4e-9)
        assert lockstep_signature(build_driver_bank(fast_edge)) != lockstep_signature(
            build_driver_bank(slow_edge)
        )


class TestGoldenParity:
    @pytest.mark.parametrize("method", ["trap", "be"])
    def test_collapsed_driver_bank_ensemble(self, tech018, method):
        specs = _driver_specs(tech018, [1, 5, 13, 29])
        tstop, dt = _grid(specs[0])
        options = TransientOptions(method=method)
        scalar = [
            transient(build_driver_bank(s), tstop, dt, options=options) for s in specs
        ]
        batched = batch_transient(
            [build_driver_bank(s) for s in specs], tstop, dt, options=options
        )
        _assert_results_match(scalar, batched)
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)

    def test_multi_device_lc_bank_dense_path(self, tech018):
        """Non-collapsed banks have several MOSFET banks per circuit, so
        every iterate restamps several device positions into the dense
        stack.  Instances vary in inductance (value-only, so topology is
        shared)."""
        specs = [
            dataclasses.replace(
                s, capacitance=2e-12, collapse=False, n_drivers=3, inductance=l
            )
            for s, l in zip(_driver_specs(tech018, [3, 3]), [3e-9, 8e-9])
        ]
        tstop, dt = _grid(specs[0], coarsen=8.0)
        scalar = [transient(build_driver_bank(s), tstop, dt) for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)
        _assert_results_match(scalar, batched)

    def test_linear_only_ensemble(self):
        def make(r):
            c = Circuit("rlc")
            c.vsource("Vin", "in", "0", Ramp(0.0, 1.8, 0.1e-9, 0.2e-9))
            c.resistor("R1", "in", "mid", r)
            c.inductor("L1", "mid", "out", 4e-9, ic=0.0)
            c.capacitor("C1", "out", "0", 3e-12, ic=0.0)
            return c

        values = [10.0, 25.0, 80.0]
        scalar = [transient(make(r), 2e-9, 5e-12) for r in values]
        batched = batch_transient([make(r) for r in values], 2e-9, 5e-12)
        _assert_results_match(scalar, batched)
        for s, b in zip(scalar, batched):
            di = np.max(np.abs(s.current("L1").y - b.current("L1").y))
            assert di <= PARITY_TOL

    def test_branch_currents_match(self, tech018):
        specs = _driver_specs(tech018, [3, 9])
        tstop, dt = _grid(specs[0])
        scalar = [transient(build_driver_bank(s), tstop, dt) for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)
        for s, b in zip(scalar, batched):
            di = np.max(np.abs(s.current("Lgnd").y - b.current("Lgnd").y))
            assert di <= PARITY_TOL, f"|dI| = {di:.3e} A"


def _per_step_device_currents(circuits, results, tstop, dt, options):
    """Every MOSFET current read the way a per-step sample reads it: the
    stacked element's ``current`` through a ``(B, n)`` stamp context over
    one recorded step's node voltages.  Returns ``{name: (steps, B)}``; an
    instance past its last step repeats that step."""
    ens = batch_mod._Ensemble(circuits, options, tstop, dt, 0.0)
    steps = max(len(r.times) for r in results)
    out = {}
    for el in ens.devices:
        per_step = []
        for k in range(steps):
            x = np.zeros((len(circuits), ens.size))
            for b, r in enumerate(results):
                x[b, :ens.nn] = r._nodes[min(k, len(r.times) - 1)]
            per_step.append(el.current(ens.context("tran", 0.0, dt, False, x)))
        out[el.name] = np.array(per_step)
    return out


class TestDeferredDeviceCurrents:
    """Device currents are evaluated once per run over the recorded node
    samples, in chunks of ``_Ensemble.CURRENT_CHUNK`` steps; each sample
    must carry the bits a per-step evaluation would have given it."""

    def _assert_bitwise(self, circuits, results, tstop, dt, options):
        reference = _per_step_device_currents(circuits, results, tstop, dt, options)
        assert reference
        for name, per_step in reference.items():
            for b, r in enumerate(results):
                got = r.current(name).y
                assert np.array_equal(got, per_step[:len(got), b]), (name, b)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
    def test_golden_bank_longer_than_one_chunk(self, tech018, adaptive):
        specs = _driver_specs(tech018, [1, 6, 17, 30])
        tstop, dt = default_stop_time(specs[0]), default_time_step(specs[0])
        options = TransientOptions(adaptive=adaptive)
        circuits = [build_driver_bank(s) for s in specs]
        results = batch_transient(circuits, tstop, dt, options=options)
        assert all(r.telemetry.batch_fallbacks == 0 for r in results)
        assert len(results[0].times) > batch_mod._Ensemble.CURRENT_CHUNK
        self._assert_bitwise(circuits, results, tstop, dt, options)

    def test_mixed_model_bank(self, asdm018, tech018):
        """Distinct ASDM objects per instance: the bank's per-instance
        model loop, which takes ``(steps, B)`` samples too."""
        def circuit(n):
            c = Circuit("asdm")
            c.vsource("Vin", "in", "0", Ramp(0.0, tech018.vdd, 0.0, 0.5e-9))
            c.vsource("Vd", "d", "0", Dc(tech018.vdd))
            c.inductor("L1", "ssn", "0", 5e-9, ic=0.0)
            c.mosfet("M1", "d", "in", "ssn", "ssn",
                     AsdmMosfet(asdm018.scaled(n), tech018.vdd))
            return c

        circuits = [circuit(n) for n in (2, 9, 24)]
        tstop, dt = 0.5e-9, 0.5e-9 / 200
        options = TransientOptions()
        results = batch_transient(circuits, tstop, dt, options=options)
        # No shared or stackable model: the per-instance loop runs.
        assert MosfetBank([c.elements[-1] for c in circuits])._model is None
        assert len(results[0].times) > batch_mod._Ensemble.CURRENT_CHUNK
        self._assert_bitwise(circuits, results, tstop, dt, options)


class TestCoupledPinEnsemble:
    """The element types no other batch test stacks: two ground pins
    coupled by a mutual inductance (one coupling per instance), a current
    source, and a ramp whose amplitude differs per instance, so the
    shared-shape fast path is bypassed."""

    COUPLINGS = (0.2, 0.5, 0.8)

    @staticmethod
    def _pins(k, amplitude):
        c = Circuit("coupled pins")
        c.vsource("Vin", "in", "0", Ramp(0.0, amplitude, 0.1e-9, 0.2e-9))
        c.resistor("Rs", "in", "a", 20.0)
        c.inductor("L1", "a", "0", 5e-9)
        c.isource("Ib", "0", "b", Dc(2e-3))
        c.resistor("Rb", "b", "0", 50.0)
        c.capacitor("Cb", "b", "0", 1e-12, ic=0.0)
        c.inductor("L2", "b", "0", 3e-9)
        c.mutual("K12", "L1", "L2", k)
        return c

    def _ensemble(self):
        return [self._pins(k, 1.0 + 0.4 * j) for j, k in enumerate(self.COUPLINGS)]

    def test_fixed_step_parity(self):
        scalar = [transient(c, 1e-9, 5e-12) for c in self._ensemble()]
        batched = batch_transient(self._ensemble(), 1e-9, 5e-12)
        _assert_results_match(scalar, batched)
        for s, b in zip(scalar, batched):
            for name in ("L1", "L2", "Vin"):
                di = np.max(np.abs(s.current(name).y - b.current(name).y))
                assert di <= PARITY_TOL, f"current {name}: |dI| = {di:.3e} A"
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)

    def test_adaptive_parity(self):
        # Linear circuits: LU-cached scalar solves and batched solves round
        # differently, so accepted times agree to TIME_TOL, not bitwise.
        from .test_spice_batch_adaptive import _assert_adaptive_parity

        options = TransientOptions(adaptive=True)
        scalar = [transient(c, 1e-9, 5e-12, options=options)
                  for c in self._ensemble()]
        batched = batch_transient(self._ensemble(), 1e-9, 5e-12, options=options)
        _assert_adaptive_parity(scalar, batched)
        assert all(b.telemetry.batch_fallbacks == 0 for b in batched)


class TestTelemetry:
    def test_per_instance_counters_match_scalar_path(self, tech018):
        """Satellite contract: batched runs report per-instance Newton
        iteration counts that sum to the scalar-path totals."""
        specs = _driver_specs(tech018, [1, 5, 13, 21])
        tstop, dt = _grid(specs[0])
        scalar = [transient(build_driver_bank(s), tstop, dt) for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)

        for s, b in zip(scalar, batched):
            assert b.telemetry.newton_solves == s.telemetry.newton_solves
            assert b.telemetry.newton_iterations == s.telemetry.newton_iterations
            assert b.telemetry.accepted_steps == s.telemetry.accepted_steps

        batched_total = sum(b.telemetry.newton_iterations for b in batched)
        scalar_total = sum(s.telemetry.newton_iterations for s in scalar)
        assert batched_total == scalar_total

    def test_no_unrecovered_failures_on_nominal_workload(self, tech018):
        specs = _driver_specs(tech018, [2, 8])
        tstop, dt = _grid(specs[0])
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)
        assert all(b.telemetry.unrecovered_failures == 0 for b in batched)


class TestCompatibilityGuards:
    def test_mixed_topologies_raise(self, tech018):
        with_c, without_c = _driver_specs(tech018, [4, 4])
        with_c = dataclasses.replace(with_c, capacitance=2e-12)
        circuits = [build_driver_bank(with_c), build_driver_bank(without_c)]
        with pytest.raises(BatchIncompatibleError):
            batch_transient(circuits, 1e-9, 1e-12)

    def test_adaptive_is_batchable(self, tech018):
        """Adaptive stepping runs in lockstep now (see
        tests/test_spice_batch_adaptive.py for the parity suite)."""
        specs = _driver_specs(tech018, [2, 4])
        circuits = [build_driver_bank(s) for s in specs]
        results = batch_transient(circuits, 1e-9, 1e-12,
                                  options=TransientOptions(adaptive=True))
        assert len(results) == len(circuits)
        assert all(r.telemetry.accepted_steps > 0 for r in results)

    def test_empty_ensemble_is_empty(self):
        assert batch_transient([], 1e-9, 1e-12) == []

    def test_bad_grid_raises(self, tech018):
        circuits = [build_driver_bank(s) for s in _driver_specs(tech018, [2])]
        with pytest.raises(ValueError):
            batch_transient(circuits, 0.0, 1e-12)
        with pytest.raises(ValueError):
            batch_transient(circuits, 1e-9, -1e-12)


class TestScalarFallback:
    def test_failed_instances_rerun_on_scalar_ladder(self, tech018, monkeypatch):
        """When the lockstep loop cannot converge an instance, that instance
        is transparently re-run on the scalar engine (which owns the
        step-halving/gmin recovery ladder) and flagged in telemetry.  The
        batched solves are sabotaged to return non-finite iterates, which
        fails every instance out of the lockstep loop deterministically."""
        monkeypatch.setattr(batch_mod, "_solve_stack",
                            lambda A, z: np.full(z.shape, np.nan))

        specs = _driver_specs(tech018, [3, 11])
        tstop, dt = _grid(specs[0])
        scalar = [transient(build_driver_bank(s), tstop, dt) for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)

        # Fallback results come from the scalar engine itself: bitwise equal.
        _assert_results_match(scalar, batched, tol=0.0)
        assert all(b.telemetry.batch_fallbacks == 1 for b in batched)

    def test_one_failed_instance_leaves_neighbours_in_lockstep(
            self, tech018, monkeypatch):
        """A single instance failing mid-run falls back alone: the solve
        returns a non-finite row for instance 1 only, from the 41st batched
        solve on, while instances 0 and 2 keep running in lockstep with
        the scalar engine's waveforms and Newton effort."""
        monkeypatch.setattr(batch_mod, "_solve_stack",
                            _nan_row_after(batch_mod._solve_stack, calls=40, row=1))

        specs = _driver_specs(tech018, [3, 11, 20])
        tstop, dt = _grid(specs[0])
        scalar = [transient(build_driver_bank(s), tstop, dt) for s in specs]
        batched = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)

        _assert_results_match([scalar[1]], [batched[1]], tol=0.0)
        assert batched[1].telemetry.batch_fallbacks == 1
        for k in (0, 2):
            s, b = scalar[k], batched[k]
            _assert_results_match([s], [b])
            assert b.telemetry.batch_fallbacks == 0
            assert b.telemetry.newton_iterations == s.telemetry.newton_iterations
            assert b.telemetry.accepted_steps == s.telemetry.accepted_steps


class TestParameterBankValidation:
    """Satellite contract: NaN/inf parameter banks are rejected at bank
    construction with an error naming the offending element, parameter and
    batch instance — not deep inside the Newton loop as an opaque
    non-finite iterate."""

    @staticmethod
    def _rlc(r=10.0, l=4e-9, c=3e-12):
        circuit = Circuit("rlc")
        circuit.vsource("Vin", "in", "0", Ramp(0.0, 1.8, 0.1e-9, 0.2e-9))
        circuit.resistor("R1", "in", "mid", r)
        circuit.inductor("L1", "mid", "out", l, ic=0.0)
        circuit.capacitor("C1", "out", "0", c, ic=0.0)
        return circuit

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_resistance_names_element_and_instance(self, bad):
        circuits = [self._rlc(), self._rlc(r=bad)]
        with pytest.raises(BatchIncompatibleError) as err:
            batch_transient(circuits, 1e-9, 5e-12)
        message = str(err.value)
        assert "R1" in message and "instance 1" in message

    def test_non_finite_capacitance_names_element_and_instance(self):
        circuits = [self._rlc(c=float("nan")), self._rlc()]
        with pytest.raises(BatchIncompatibleError) as err:
            batch_transient(circuits, 1e-9, 5e-12)
        message = str(err.value)
        assert "C1" in message and "instance 0" in message

    def test_non_finite_inductance_names_element_and_instance(self):
        circuits = [self._rlc(), self._rlc(l=float("inf"))]
        with pytest.raises(BatchIncompatibleError) as err:
            batch_transient(circuits, 1e-9, 5e-12)
        message = str(err.value)
        assert "L1" in message and "instance 1" in message

    def test_finite_banks_still_simulate(self):
        results = batch_transient([self._rlc(), self._rlc(r=25.0)], 1e-9, 5e-12)
        assert len(results) == 2


def test_scalar_device_memo_never_reaches_a_stacked_device(tech018, monkeypatch):
    """A scalar run leaves each device's accepted-point memo set; stacking
    those circuits copies the elements, and the copies (whose model is a
    bank) must neither read the memo nor change a bit of the ensemble.
    Nor may they read or write the run-wide entry of the last evaluation,
    which the scalar engine keeps on its ``MnaSystem``."""

    class GuardedSystem(batch_mod.MnaSystem):
        @property
        def last_op(self):
            raise AssertionError("a stacked device read the shared entry")

        @last_op.setter
        def last_op(self, value):
            assert value is None, "a stacked device wrote the shared entry"

    base = _driver_specs(tech018, (3,), collapse=False)[0]
    specs = [dataclasses.replace(base, inductance=lg) for lg in (5e-9, 8e-9)]
    tstop, dt = _grid(specs[0])
    circuits = [build_driver_bank(s) for s in specs]
    for circuit in circuits:
        transient(circuit, tstop, dt)
    assert all(c.element("M1")._memo is not None for c in circuits)
    monkeypatch.setattr(batch_mod, "MnaSystem", GuardedSystem)
    reused = batch_transient(circuits, tstop, dt)
    fresh = batch_transient([build_driver_bank(s) for s in specs], tstop, dt)
    for a, b in zip(reused, fresh):
        for node in a.node_names:
            assert a.voltage(node).y.tobytes() == b.voltage(node).y.tobytes()
