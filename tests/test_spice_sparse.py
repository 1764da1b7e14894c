"""Sparse-tier tests: CSC assembly + splu against the dense LAPACK path.

The sparse linear-algebra tier (:mod:`repro.spice.mna`) must be invisible
except for speed: identical step sequences and waveforms within 1e-9 V of
the dense path on both the paper's driver-bank circuits and the large
RC-ladder workloads the tier exists for, and honest telemetry about which
backend actually ran.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.simulate import default_stop_time, default_time_step
from repro.spice.mna import SPARSE_AUTO_THRESHOLD, resolve_sparse
from repro.spice.transient import TransientOptions, transient
from repro.testing.netlists import ladder_circuit

#: Sparse waveforms must stay within this of the dense path.
PARITY_TOL = 1e-9

def _run_both(circuit, tstop, dt, **opt_kwargs):
    dense = transient(circuit, tstop, dt,
                      options=TransientOptions(sparse=False, **opt_kwargs))
    sparse = transient(circuit, tstop, dt,
                       options=TransientOptions(sparse=True, **opt_kwargs))
    return dense, sparse


def _assert_waveform_parity(dense, sparse):
    assert np.array_equal(dense.times, sparse.times), "step sequences diverged"
    for node in dense.node_names:
        dv = np.max(np.abs(dense.voltage(node).y - sparse.voltage(node).y))
        assert dv <= PARITY_TOL, f"node {node}: |dV| = {dv:.3e} V"


class TestGoldenParity:
    def test_driver_bank_sweep_parity(self, tech018):
        """Fig. 3 style circuits match dense bit-for-bit in step structure."""
        base = DriverBankSpec(technology=tech018, n_drivers=1,
                              inductance=5e-9, rise_time=0.2e-9)
        for n in (1, 5, 11):
            spec = dataclasses.replace(base, n_drivers=n)
            circuit = build_driver_bank(spec)
            tstop = default_stop_time(spec)
            dt = 4.0 * default_time_step(spec)
            dense, sparse = _run_both(circuit, tstop, dt)
            _assert_waveform_parity(dense, sparse)
            assert sparse.telemetry.newton_solves == dense.telemetry.newton_solves
            assert sparse.telemetry.newton_iterations == (
                dense.telemetry.newton_iterations)

    def test_large_ladder_parity(self):
        """A 500-section ladder (~503 unknowns) — the tier's home turf."""
        circuit = ladder_circuit(500)
        dense, sparse = _run_both(circuit, 0.3e-9, 0.05e-9)
        _assert_waveform_parity(dense, sparse)
        assert sparse.telemetry.sparse_factorizations > 0
        assert sparse.telemetry.sparse_pattern_reuses > 0

    def test_linear_ladder_cached_factorization(self):
        """Driverless (purely linear) ladders reuse one splu per phase."""
        circuit = ladder_circuit(200, driver=False)
        dense, sparse = _run_both(circuit, 0.4e-9, 0.05e-9)
        _assert_waveform_parity(dense, sparse)
        tel = sparse.telemetry
        assert tel.lu_cache_hits > 0
        # Far fewer factorizations than solves: the cache carried the run.
        assert tel.sparse_factorizations < tel.newton_solves

    def test_adaptive_sparse_parity(self):
        """Adaptive runs match in step structure and waveforms.  The step
        grids agree only to rounding (splu and LAPACK solutions differ at
        the last ulp, which the step controller sees through the LTE cube
        root), so times are compared with a tight tolerance, not bitwise."""
        circuit = ladder_circuit(160)
        dense, sparse = _run_both(circuit, 0.3e-9, 0.05e-9, adaptive=True)
        assert len(dense.times) == len(sparse.times)
        assert np.max(np.abs(dense.times - sparse.times)) <= 1e-18
        for node in dense.node_names:
            dv = np.max(np.abs(dense.voltage(node).y - sparse.voltage(node).y))
            assert dv <= PARITY_TOL, f"node {node}: |dV| = {dv:.3e} V"
        assert sparse.telemetry.lte_rejections == dense.telemetry.lte_rejections
        assert sparse.telemetry.accepted_steps == dense.telemetry.accepted_steps


class TestBackendTelemetry:
    def test_sparse_backend_recorded(self):
        result = transient(ladder_circuit(8), 0.2e-9, 0.05e-9,
                           options=TransientOptions(sparse=True))
        assert result.telemetry.extras.get("backend_sparse_splu") == 1
        assert "linear-algebra backends" in result.telemetry.format_report()

    def test_dense_backend_recorded(self):
        result = transient(ladder_circuit(8), 0.2e-9, 0.05e-9,
                           options=TransientOptions(sparse=False))
        assert result.telemetry.extras.get("backend_dense_lu") == 1

    def test_backend_keys_round_trip_from_dict(self):
        result = transient(ladder_circuit(8), 0.2e-9, 0.05e-9,
                           options=TransientOptions(sparse=True))
        clone = type(result.telemetry).from_dict(result.telemetry.as_dict())
        assert clone.extras.get("backend_sparse_splu") == 1


class TestResolution:
    def test_threshold_heuristic(self):
        small = resolve_sparse("auto", SPARSE_AUTO_THRESHOLD - 1)
        large = resolve_sparse("auto", SPARSE_AUTO_THRESHOLD)
        assert small is False
        assert large is True

    def test_explicit_option_pins_the_tier(self):
        assert resolve_sparse(False, 10 * SPARSE_AUTO_THRESHOLD) is False
        assert resolve_sparse(True, 2) is True

    @pytest.mark.parametrize("value", ["sideways", "on", "off", "True", 1, 0,
                                       0.0, 1.0, None, np.True_])
    def test_anything_but_true_false_auto_rejected(self, value):
        with pytest.raises(ValueError, match="sparse"):
            TransientOptions(sparse=value)

    @pytest.mark.parametrize("value", [True, False, "auto"])
    def test_true_false_auto_accepted(self, value):
        assert TransientOptions(sparse=value).sparse is value
