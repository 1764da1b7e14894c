"""Golden-parity and determinism tests for the simulation engine.

The cached-assembly engine (linear base stamped once per solve, nonlinear
devices restamped per Newton iterate, no post-convergence re-assembly,
scalar device evaluation) must reproduce the waveforms the retired seed
engine produced — frozen under ``tests/data/`` — to within
1e-9 V / 1e-9 A on the paper's Fig. 2 driver-bank circuit, across both
integration methods and both stepping modes.  The parallel experiment
layer must return results identical to the serial path, in the same order.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.parallel import parallel_map, resolve_workers
from repro.analysis.simulate import (
    default_stop_time,
    default_time_step,
    simulate_ssn_cached,
)
from repro.analysis.sweeps import sweep_driver_count
from repro.spice import Circuit, Ramp
from repro.spice.transient import TransientOptions, transient

#: Waveforms must stay within this of the frozen seed-engine reference.
PARITY_TOL = 1e-9


@pytest.fixture
def fig2_spec(tech018):
    """A small Fig. 2 driver bank: explicit devices, LC ground path."""
    return DriverBankSpec(
        technology=tech018,
        n_drivers=3,
        inductance=5e-9,
        rise_time=0.2e-9,
        capacitance=2e-12,
        load_capacitance=10e-12,
        collapse=False,
    )


def _run_fast(spec, **option_kwargs):
    tstop = default_stop_time(spec)
    dt = 4.0 * default_time_step(spec)  # coarser than production: parity
    # holds at any step size and the test stays fast.
    return transient(build_driver_bank(spec), tstop, dt,
                     options=TransientOptions(**option_kwargs))


@pytest.mark.parametrize(
    "method,adaptive",
    [("trap", False), ("be", False), ("trap", True), ("be", True)],
    ids=["trap-fixed", "be-fixed", "trap-adaptive", "be-adaptive"],
)
def test_fastpath_matches_seed_engine(fig2_spec, seed_reference, method, adaptive):
    fast = _run_fast(fig2_spec, method=method, adaptive=adaptive)
    ref = seed_reference(f"fig2-{method}-{'adaptive' if adaptive else 'fixed'}")

    assert len(fast.times) == len(ref.times), "step sequences diverged"
    assert np.max(np.abs(fast.times - ref.times)) < 1e-18

    for node in ref.node_names:
        dv = np.max(np.abs(fast.voltage(node).y - ref.voltage(node)))
        assert dv <= PARITY_TOL, f"node {node}: |dV| = {dv:.3e} V"

    circuit = build_driver_bank(fig2_spec)
    for el in circuit.elements:
        if not hasattr(el, "current"):
            continue
        di = np.max(np.abs(fast.current(el.name).y - ref.current(el.name)))
        assert di <= PARITY_TOL, f"element {el.name}: |dI| = {di:.3e} A"


def test_fastpath_matches_seed_engine_linear_circuit(seed_reference):
    """Pure-RLC circuit: exercises the direct solve + LU cache across
    steps, dt changes and breakpoint restarts."""

    def make():
        c = Circuit("rlc")
        c.vsource("Vin", "in", "0", Ramp(0.0, 1.8, 0.1e-9, 0.2e-9))
        c.resistor("R1", "in", "mid", 25.0)
        c.inductor("L1", "mid", "out", 4e-9, ic=0.0)
        c.capacitor("C1", "out", "0", 3e-12, ic=0.0)
        return c

    for method in ("trap", "be"):
        fast = transient(make(), 2e-9, 5e-12, options=TransientOptions(method=method))
        ref = seed_reference(f"rlc-{method}")
        assert len(fast.times) == len(ref.times)
        for node in ref.node_names:
            dv = np.max(np.abs(fast.voltage(node).y - ref.voltage(node)))
            assert dv <= PARITY_TOL, f"{method}/{node}: |dV| = {dv:.3e} V"
        di = np.max(np.abs(fast.current("L1").y - ref.current("L1")))
        assert di <= PARITY_TOL


def test_simulate_ssn_memoized_on_frozen_spec(tech018):
    spec = DriverBankSpec(
        technology=tech018, n_drivers=2, inductance=5e-9, rise_time=0.5e-9
    )
    first = simulate_ssn_cached(spec)
    # An equal-but-distinct spec hits the same cache entry.
    again = simulate_ssn_cached(dataclasses.replace(spec))
    assert again is first


class TestParallelDeterminism:
    def test_parallel_sweep_identical_to_serial(self, tech018):
        base = DriverBankSpec(
            technology=tech018, n_drivers=1, inductance=5e-9, rise_time=0.5e-9
        )
        estimators = {"const": lambda spec: 0.25}
        counts = [1, 2, 3]
        serial = sweep_driver_count(base, counts, estimators, max_workers=1)
        parallel = sweep_driver_count(base, counts, estimators, max_workers=4)

        assert serial.values() == parallel.values()
        assert serial.simulated_peaks() == parallel.simulated_peaks()
        for ps, pp in zip(serial.points, parallel.points):
            assert ps.estimates == pp.estimates
            assert ps.spec == pp.spec

    def test_parallel_map_preserves_order_and_values(self):
        items = list(range(24))
        assert parallel_map(_square, items, max_workers=4) == [i * i for i in items]

    def test_parallel_map_raises_a_worker_exception_once(self, tmp_path):
        # No item is recomputed in the parent after a worker raises.
        log = tmp_path / "calls.log"
        with pytest.raises(TypeError, match="item 1"):
            parallel_map(functools.partial(_log_and_fail_on_one, str(log)),
                         range(4), max_workers=2)
        calls = [int(line) for line in log.read_text().split()]
        assert 1 in calls
        assert len(calls) == len(set(calls))

    def test_serial_fallback_when_single_worker(self):
        # Unpicklable closures are fine at max_workers=1 (no pool involved).
        assert parallel_map(lambda v: v + 1, [1, 2, 3], max_workers=1) == [2, 3, 4]

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(0) >= 1
        monkeypatch.setenv("REPRO_MAX_WORKERS", "5")
        assert resolve_workers(None) == 5
        # An explicit bad argument is a programming error and still raises.
        with pytest.raises(ValueError):
            resolve_workers(-2)

    @pytest.mark.parametrize("garbage", ["auto", "abc", "1.5", "-3"])
    def test_resolve_workers_garbage_env_falls_back_serial(self, monkeypatch, garbage):
        # A broken environment variable must degrade to serial with a
        # warning, never crash an experiment (satellite bugfix).
        monkeypatch.setenv("REPRO_MAX_WORKERS", garbage)
        with pytest.warns(RuntimeWarning, match="REPRO_MAX_WORKERS"):
            assert resolve_workers(None) == 1

    def test_resolve_workers_blank_env_is_serial_without_warning(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "   ")
        assert resolve_workers(None) == 1


def _square(v):
    return v * v


def _log_and_fail_on_one(log, v):
    with open(log, "a") as fh:
        fh.write(f"{v}\n")
    if v == 1:
        raise TypeError("item 1 is not a number")
    return v
