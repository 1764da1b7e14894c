"""Large dense systems: the RC ladders of :mod:`repro.testing.netlists`.

The SSN driver banks stay under a few dozen unknowns, so these ladders are
the suite's only runs of the dense LAPACK path on hundreds of unknowns.
A driverless ladder is linear time-invariant, which gives two oracles that
share no code with the engine:

* the companion recurrence, written out with ``numpy.linalg.solve``: the
  engine's waveform must match it to rounding, step for step, on the
  engine's own grid (backward Euler on the first step and after each ramp
  corner, the requested method elsewhere), while the linear-only factor
  cache carries the run;
* the exact solution, propagated with ``scipy.linalg.expm`` over each
  step: backward Euler must converge to it at first order.

A MOSFET at the ladder head makes the Newton loop iterate over the full
matrix; there the batched lockstep engine must reproduce the scalar one.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from repro.spice.batch import batch_transient
from repro.spice.telemetry import SolverTelemetry
from repro.spice.transient import TransientOptions, transient
from repro.testing.netlists import ladder_circuit

#: ``ladder_circuit`` defaults: section R and C, ramp amplitude, ramp
#: start and rise time.
R, C, VDD, T_DELAY, T_RISE = 25.0, 0.05e-12, 1.8, 0.1e-9, 0.2e-9
CORNERS = (T_DELAY, T_DELAY + T_RISE)
TSTOP = 0.5e-9

#: Engine waveforms must match the written-out recurrence within this.
RECURRENCE_TOL = 1e-12

SECTIONS = (1, 4, 16, 64, 256)


def _vin(t):
    return VDD * np.clip((t - T_DELAY) / T_RISE, 0.0, 1.0)


def _nodal(sections):
    """``C dv/dt = -G v + b vin(t)`` over the section nodes n1..nN."""
    g = np.zeros((sections, sections))
    for k in range(sections):
        g[k, k] = (2.0 if k < sections - 1 else 1.0) / R
        if k:
            g[k, k - 1] = g[k - 1, k] = -1.0 / R
    b = np.zeros(sections)
    b[0] = 1.0 / R
    return g, b


def _recurrence(sections, times, method):
    g, b = _nodal(sections)
    eye = np.eye(sections)
    v = np.zeros(sections)
    out = np.zeros((len(times), sections))
    for k in range(1, len(times)):
        t0, t1 = times[k - 1], times[k]
        ch = C / (t1 - t0) * eye
        restart = t0 == times[0] or np.any(np.isclose(t0, CORNERS, rtol=0, atol=1e-21))
        if method == "be" or restart:
            v = np.linalg.solve(ch + g, ch @ v + b * _vin(t1))
        else:
            v = np.linalg.solve(ch + g / 2, (ch - g / 2) @ v
                                + b * (_vin(t0) + _vin(t1)) / 2)
        out[k] = v
    return out


def _exact(sections, times):
    """Exact node voltages: the state augmented with (vin, dvin/dt), which
    is constant-slope between samples, propagated by the matrix exponential.
    Steps equal to the attosecond share one exponential."""
    g, b = _nodal(sections)
    n = sections
    a = np.zeros((n + 2, n + 2))
    a[:n, :n] = -g / C
    a[:n, n] = b / C
    a[n, n + 1] = 1.0
    propagators = {}
    z = np.zeros(n + 2)
    out = np.zeros((len(times), n))
    for k in range(1, len(times)):
        t0, t1 = times[k - 1], times[k]
        z[n] = _vin(t0)
        z[n + 1] = VDD / T_RISE if CORNERS[0] < (t0 + t1) / 2 < CORNERS[1] else 0.0
        key = round((t1 - t0) * 1e18)
        if key not in propagators:
            propagators[key] = expm(a * (t1 - t0))
        z = propagators[key] @ z
        out[k] = z[:n]
    return out


def _node_voltages(result, sections):
    return np.column_stack([result.voltage(f"n{k}").y for k in range(1, sections + 1)])


class TestLinearLadder:
    @pytest.mark.parametrize("method", ["be", "trap"])
    @pytest.mark.parametrize("sections", SECTIONS)
    def test_matches_companion_recurrence(self, sections, method):
        result = transient(ladder_circuit(sections, driver=False), TSTOP, 0.0125e-9,
                           options=TransientOptions(method=method))
        got = _node_voltages(result, sections)
        want = _recurrence(sections, result.times, method)
        assert np.max(np.abs(got - want)) <= RECURRENCE_TOL
        tel = result.telemetry
        # One linear solve per step, nearly all on a cached factorization:
        # only a new (step, method) pair factorizes.
        assert tel.newton_solves == len(result.times)
        assert tel.lu_cache_hits + tel.lu_cache_misses == tel.newton_solves
        assert tel.lu_cache_misses <= 10
        assert tel.extras == {"backend_dense_lu": 1}
        clone = SolverTelemetry.from_dict(tel.as_dict())
        assert clone.extras == {"backend_dense_lu": 1}

    @pytest.mark.parametrize("sections", (16, 64, 256))
    def test_backward_euler_converges_to_exact(self, sections):
        errors = []
        for dt in (0.025e-9, 0.0125e-9, 0.00625e-9):
            result = transient(ladder_circuit(sections, driver=False), TSTOP, dt,
                               options=TransientOptions(method="be"))
            got = _node_voltages(result, sections)
            errors.append(np.max(np.abs(got - _exact(sections, result.times))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 1.7 <= coarse / fine <= 2.3, f"errors {errors} per halving"


class TestDrivenLadder:
    @pytest.mark.parametrize("sections", (16, 160))
    def test_batch_matches_scalar(self, sections):
        """Three driver widths in lockstep against three scalar runs."""
        circuits = [ladder_circuit(sections, width=w) for w in (20e-6, 40e-6, 80e-6)]
        dt = 0.02e-9
        batched = batch_transient(circuits, TSTOP, dt)
        for circuit, got in zip(circuits, batched):
            scalar = transient(circuit, TSTOP, dt)
            assert got.telemetry.batch_fallbacks == 0
            assert np.array_equal(got.times, scalar.times)
            # The driver makes Newton iterate on the full matrix.
            assert scalar.telemetry.newton_iterations > scalar.telemetry.newton_solves
            dv = np.max(np.abs(_node_voltages(got, sections)
                               - _node_voltages(scalar, sections)))
            assert dv <= 1e-9, f"|dV| = {dv:.3e} V"
