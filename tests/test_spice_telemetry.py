"""Convergence-recovery and solver-telemetry tests.

Covers the PR's acceptance criterion — a driver-bank transient seeded to
fail Newton at the default step must complete via automatic step halving
with ``>= 1`` recovered rejection, ``0`` unrecovered failures, and parity
with the frozen seed-engine reference intact — plus the telemetry record itself
(merge/aggregate semantics, LU-cache counters with the staleness guard,
DC gmin-stepping observability, the metrics registry's telemetry view, and
the analysis layer's cross-worker aggregation).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.montecarlo import peak_noise_distribution
from repro.analysis.simulate import aggregate_telemetry, default_stop_time, simulate_ssn
from repro.analysis.sweeps import sweep_driver_count
from repro.spice import Circuit, Dc, Ramp
from repro.spice.dc import dc_operating_point
from repro.spice.mna import MnaSystem
from repro.spice.solver import ConvergenceError
from repro.observability import metrics as obs_metrics
from repro.spice.telemetry import SolverTelemetry, record_session, record_telemetry
from repro.spice.transient import TransientOptions, transient

#: Waveforms must stay within this of the frozen seed-engine reference.
PARITY_TOL = 1e-9


@pytest.fixture
def failing_spec(tech018):
    """Fig. 2 bank whose *default step* rejects at least one Newton solve.

    ``dt = rise_time`` with a 5-iteration Newton budget makes the first
    post-breakpoint step jump too far for the damped iteration, so the
    engine must recover by halving (verified by the telemetry assertions).
    """
    return DriverBankSpec(
        technology=tech018,
        n_drivers=3,
        inductance=5e-9,
        rise_time=0.2e-9,
        capacitance=2e-12,
        load_capacitance=10e-12,
        collapse=False,
    )


def _failing_run(spec, **options):
    """The failing bank's telemetry: its result's, or the one attached to
    the ConvergenceError it raised (returned with the error)."""
    try:
        result = transient(
            build_driver_bank(spec), default_stop_time(spec), spec.rise_time,
            options=TransientOptions(max_newton=5, **options),
        )
    except ConvergenceError as exc:
        return exc.telemetry, exc
    return result.telemetry, result


class TestConvergenceRecovery:
    def test_seeded_newton_failure_recovers_by_step_halving(self, failing_spec):
        """The recovery criterion."""
        tel, result = _failing_run(failing_spec)
        assert tel.step_rejections >= 1
        assert tel.recovered_rejections >= 1
        assert tel.step_retries == tel.step_rejections
        assert tel.unrecovered_failures == 0
        assert tel.accepted_steps == len(result.times) - 1
        assert tel.newton_iterations > tel.newton_solves > 0

    def test_recovery_parity_fast_vs_legacy(self, failing_spec, seed_reference):
        """The engine rejects exactly as the frozen seed engine did and lands
        on its waveforms (a stored run had no unrecovered failure)."""
        tstop = default_stop_time(failing_spec)
        dt = failing_spec.rise_time
        fast = transient(build_driver_bank(failing_spec), tstop, dt,
                         options=TransientOptions(max_newton=5))
        ref = seed_reference("recovery-max_newton5")
        assert fast.telemetry.step_rejections == ref.step_rejections >= 1
        assert fast.telemetry.unrecovered_failures == 0
        assert len(fast.times) == len(ref.times), "step sequences diverged"
        for node in ref.node_names:
            dv = np.max(np.abs(fast.voltage(node).y - ref.voltage(node)))
            assert dv <= PARITY_TOL, f"node {node}: |dV| = {dv:.3e} V"

    def test_adaptive_mode_also_recovers(self, failing_spec):
        tel, result = _failing_run(failing_spec, adaptive=True)
        assert tel.step_rejections >= 1
        assert tel.unrecovered_failures == 0
        assert tel.accepted_steps == len(result.times) - 1

    def test_min_dt_floor_makes_failure_unrecoverable(self, failing_spec):
        """With the floor at the base step no halving is allowed: the run
        raises, and the exception carries the partial telemetry."""
        dt = failing_spec.rise_time
        tel, error = _failing_run(failing_spec, min_dt=dt)
        assert isinstance(error, ConvergenceError)
        assert tel is not None
        assert tel.unrecovered_failures == 1
        assert tel.step_rejections >= 1
        assert tel.recovered_rejections == tel.step_rejections - 1
        assert "total" in tel.phase_seconds

    def test_min_dt_must_be_positive(self):
        with pytest.raises(ValueError, match="min_dt"):
            TransientOptions(min_dt=0.0)

    def test_clean_run_reports_no_rejections(self, failing_spec):
        sim = simulate_ssn(failing_spec)  # default (fine) step
        tel = sim.telemetry
        assert tel is not None
        assert tel.step_rejections == 0
        assert tel.unrecovered_failures == 0
        assert tel.newton_iterations > 0
        assert tel.phase_seconds.get("total", 0.0) > 0.0


class TestTelemetryRecord:
    def test_merge_and_aggregate(self):
        a = SolverTelemetry(newton_solves=2, newton_iterations=10,
                            step_rejections=1, step_retries=1)
        a.add_phase_seconds("stepping", 0.5)
        b = SolverTelemetry(newton_solves=3, newton_iterations=5,
                            unrecovered_failures=1)
        b.add_phase_seconds("stepping", 0.25)
        b.add_phase_seconds("ic", 0.1)
        total = SolverTelemetry.aggregate([a, b, None])
        assert total.newton_solves == 5
        assert total.newton_iterations == 15
        assert total.step_rejections == 1
        assert total.unrecovered_failures == 1
        assert total.recovered_rejections == 0
        assert total.phase_seconds["stepping"] == pytest.approx(0.75)
        assert total.phase_seconds["ic"] == pytest.approx(0.1)

    def test_as_dict_is_machine_readable(self):
        tel = SolverTelemetry(step_rejections=2, step_retries=2)
        d = tel.as_dict()
        assert d["ok"] is True
        assert d["recovered_rejections"] == 2
        assert d["phase_seconds"] == {}
        import json
        json.dumps(d)  # must be JSON-serializable as-is
        tel.unrecovered_failures = 1
        assert tel.as_dict()["ok"] is False

    def test_format_report_mentions_key_counters(self):
        tel = SolverTelemetry(newton_solves=4, step_rejections=1, step_retries=1)
        text = tel.format_report()
        assert "rejections" in text
        assert "unrecovered" in text

    def test_pickle_round_trip(self):
        import pickle
        tel = SolverTelemetry(newton_iterations=7, lu_cache_hits=3)
        tel.add_phase_seconds("total", 1.25)
        clone = pickle.loads(pickle.dumps(tel))
        assert clone == tel


class TestForwardCompatExtras:
    """Journals written by a *newer* producer must round-trip losslessly."""

    def test_unknown_numeric_keys_survive_in_extras(self):
        import warnings as _warnings
        from repro.spice import telemetry as tel_mod

        data = SolverTelemetry(newton_solves=2).as_dict()
        data["future_counter"] = 5
        data["future_flag"] = True        # bool is not a counter
        data["future_note"] = "text"      # nor is a string
        tel_mod._warned_extras.discard("future_counter")
        tel_mod._warned_extras.discard("future_flag")
        tel_mod._warned_extras.discard("future_note")
        with pytest.warns(RuntimeWarning, match="future_counter"):
            tel = SolverTelemetry.from_dict(data)
        assert tel.newton_solves == 2
        assert tel.extras == {"future_counter": 5}
        # Warn once per process per counter name, not per journal line.
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            again = SolverTelemetry.from_dict(data)
        assert again.extras == {"future_counter": 5}

    def test_extras_reemitted_at_top_level_and_merged(self):
        a = SolverTelemetry()
        a.extras["future_counter"] = 5
        b = SolverTelemetry()
        b.extras["future_counter"] = 3
        a.merge(b)
        assert a.extras["future_counter"] == 8
        # Round trip hands the newer consumer back its exact counter.
        assert a.as_dict()["future_counter"] == 8

    def test_surrogate_extras_are_not_newer_producer_counters(self):
        tel = SolverTelemetry()
        tel.extras.update(surrogate_hits=1, backend_dense_lu=1, future_counter=2)
        report = tel.format_report()
        assert "newer-producer counters:      future_counter=2" in report
        assert "surrogate_hits" not in report

    def test_retired_full_assemblies_key_loads_silently(self):
        """Records and checkpoints written before ``full_assemblies`` was
        dropped carry it as 0; loading them neither warns nor keeps it."""
        import warnings as _warnings

        data = SolverTelemetry(newton_solves=2).as_dict()
        data["full_assemblies"] = 0
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            tel = SolverTelemetry.from_dict(data)
        assert tel.newton_solves == 2
        assert tel.extras == {}
        assert "full_assemblies" not in tel.as_dict()
        assert "full" not in tel.format_report()

    def test_retired_sparse_tier_record_loads_silently(self):
        """Records written while the sparse ``splu`` tier existed carry its
        two counters and its backend; the counters drop without a warning
        and the backend count round-trips."""
        import warnings as _warnings
        from repro.spice import telemetry as tel_mod

        data = SolverTelemetry(newton_solves=2).as_dict()
        data.update(sparse_factorizations=3, sparse_pattern_reuses=5,
                    backend_sparse_splu=1)
        for key in data:
            tel_mod._warned_extras.discard(key)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            tel = SolverTelemetry.from_dict(data)
        assert tel.newton_solves == 2
        assert tel.extras == {"backend_sparse_splu": 1}
        out = tel.as_dict()
        assert "sparse_factorizations" not in out
        assert "sparse_pattern_reuses" not in out
        assert out["backend_sparse_splu"] == 1
        assert SolverTelemetry.from_dict(out) == tel


@pytest.fixture
def registry():
    registry = obs_metrics.enable_metrics()
    yield registry
    obs_metrics.disable_metrics()


#: Records as the engines write them: counters, phases, backend extras.
_records = st.builds(
    SolverTelemetry,
    **{f.name: st.integers(0, 10**6) for f in dataclasses.fields(SolverTelemetry)
       if f.name not in ("extras", "phase_seconds")},
    extras=st.dictionaries(st.sampled_from(["backend_dense_lu", "backend_x"]),
                           st.integers(0, 100), max_size=2),
    phase_seconds=st.dictionaries(
        st.sampled_from(["ic", "stepping", "total", "montecarlo"]),
        st.floats(0.0, 1e3, allow_nan=False), max_size=4),
)


class TestRegistryTelemetry:
    """Finished runs reach the active metrics registry through
    ``record_session``; ``SolverTelemetry.from_registry`` reads them back."""

    def test_disabled_by_default(self):
        assert obs_metrics.active_registry() is None
        record_session(SolverTelemetry(newton_solves=1))  # must be a no-op
        assert obs_metrics.active_registry() is None

    def test_transient_runs_accumulate_into_registry(self, failing_spec, registry):
        transient(build_driver_bank(failing_spec), default_stop_time(failing_spec),
                  failing_spec.rise_time, options=TransientOptions(max_newton=5))
        first = SolverTelemetry.from_registry(registry)
        assert first.step_rejections >= 1
        assert first.unrecovered_failures == 0
        transient(build_driver_bank(failing_spec), default_stop_time(failing_spec),
                  failing_spec.rise_time, options=TransientOptions(max_newton=5))
        assert SolverTelemetry.from_registry(registry).newton_solves > first.newton_solves

    def test_failed_run_is_recorded_before_raising(self, failing_spec, registry):
        dt = failing_spec.rise_time
        with pytest.raises(ConvergenceError):
            transient(build_driver_bank(failing_spec),
                      default_stop_time(failing_spec), dt,
                      options=TransientOptions(max_newton=5, min_dt=dt))
        assert SolverTelemetry.from_registry(registry).unrecovered_failures == 1

    @given(st.lists(_records, max_size=6))
    def test_registry_view_equals_aggregate(self, records):
        """Counters exactly, phases bit for bit: the registry sums in the
        order ``aggregate`` merges."""
        registry = obs_metrics.enable_metrics()
        try:
            for record in records:
                record_session(record)
        finally:
            obs_metrics.disable_metrics()
        view = SolverTelemetry.from_registry(registry)
        assert view == SolverTelemetry.aggregate(records)
        assert all(type(getattr(view, f.name)) is int for f in dataclasses.fields(view)
                   if f.name not in ("extras", "phase_seconds"))

    def test_surrogate_routing_counters_are_not_read(self):
        """``repro_surrogate_hits_total`` is the surrogate registry's own
        lookup counter, not a telemetry extra."""
        registry = obs_metrics.MetricsRegistry()
        registry.counter("repro_surrogate_hits_total").inc(3)
        registry.counter("repro_ssn_memo_hits_total").inc(2)
        tel = SolverTelemetry(newton_solves=2)
        tel.extras["backend_dense_lu"] = 1
        record_telemetry(registry, tel)
        assert SolverTelemetry.from_registry(registry) == tel


class TestLuCacheTelemetryAndStaleness:
    def _linear_circuit(self, r_ohms: float) -> Circuit:
        c = Circuit("rlc")
        c.vsource("Vin", "in", "0", Ramp(0.0, 1.8, 0.1e-9, 0.2e-9))
        c.resistor("R1", "in", "mid", r_ohms)
        c.inductor("L1", "mid", "out", 4e-9, ic=0.0)
        c.capacitor("C1", "out", "0", 3e-12, ic=0.0)
        return c

    def test_linear_transient_counts_hits_and_misses(self):
        result = transient(self._linear_circuit(25.0), 2e-9, 5e-12)
        tel = result.telemetry
        assert tel.lu_cache_hits > 0
        assert tel.lu_cache_misses >= 1
        assert tel.lu_cache_hits + tel.lu_cache_misses == tel.newton_solves
        assert tel.newton_iterations == 0  # direct solves, no Newton loop

    def test_same_key_different_matrix_never_reuses_stale_lu(self):
        """Cross-circuit parity: two different linear systems sharing one
        cache key (the satellite bug) must each get their own solution."""
        pytest.importorskip("scipy")
        system = MnaSystem(self._linear_circuit(25.0))
        n = system.size
        rng = np.random.default_rng(42)
        A1 = rng.normal(size=(n, n)) + n * np.eye(n)
        A2 = rng.normal(size=(n, n)) + n * np.eye(n)  # same shape, same key
        z = rng.normal(size=n)
        key = ("tran", 1e-12, "trap", ())
        x1 = system.solve_linear_cached(key, A1.copy(), z)
        x2 = system.solve_linear_cached(key, A2.copy(), z)
        np.testing.assert_allclose(x1, np.linalg.solve(A1, z), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(x2, np.linalg.solve(A2, z), rtol=1e-10, atol=1e-12)

    def test_mutated_element_value_invalidates_cached_factors(self):
        """Re-running a reused MnaSystem after mutating an element value
        must not solve against the old circuit's factorization."""
        circuit = self._linear_circuit(25.0)
        tel = SolverTelemetry()
        system = MnaSystem(circuit)
        system.telemetry = tel
        rng = np.random.default_rng(0)
        n = system.size
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        z = rng.normal(size=n)
        key = ("tran", 5e-12, "trap", (True,))
        system.solve_linear_cached(key, A.copy(), z)
        hits_before = tel.lu_cache_hits
        # Same key, perturbed matrix (as a mutated R value would produce).
        A_mut = A.copy()
        A_mut[0, 0] *= 2.0
        x = system.solve_linear_cached(key, A_mut, z)
        np.testing.assert_allclose(x, np.linalg.solve(A_mut, z), rtol=1e-10, atol=1e-12)
        assert tel.lu_cache_hits == hits_before  # reuse was (rightly) refused
        assert tel.lu_cache_invalidations >= 1

    def test_cross_circuit_transients_stay_correct(self):
        """End-to-end: two linear circuits simulated back-to-back give the
        same waveforms as when each is simulated in a fresh process state."""
        r_values = (25.0, 250.0)
        baseline = [
            transient(self._linear_circuit(r), 2e-9, 5e-12) for r in r_values
        ]
        interleaved = [
            transient(self._linear_circuit(r), 2e-9, 5e-12) for r in r_values
        ]
        for base, inter in zip(baseline, interleaved):
            for node in base.node_names:
                np.testing.assert_array_equal(
                    base.voltage(node).y, inter.voltage(node).y
                )


class TestDcTelemetry:
    def _divider(self) -> Circuit:
        c = Circuit("divider")
        c.vsource("V1", "a", "0", Dc(2.0))
        c.resistor("R1", "a", "b", 1000.0)
        c.resistor("R2", "b", "0", 1000.0)
        return c

    def test_direct_solve_records_telemetry(self):
        sol = dc_operating_point(self._divider())
        assert sol.voltage("b") == pytest.approx(1.0)
        assert sol.telemetry.gmin_steps == 0
        assert sol.telemetry.unrecovered_failures == 0
        assert sol.telemetry.phase_seconds.get("dc", 0.0) > 0.0

    def test_gmin_ladder_counts_stages(self, monkeypatch):
        """Force the direct attempt to fail so the continuation ladder runs."""
        import repro.spice.dc as dc_mod

        real = dc_mod.newton_solve
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ConvergenceError("seeded direct-solve failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(dc_mod, "newton_solve", flaky)
        sol = dc_mod.dc_operating_point(self._divider())
        assert sol.voltage("b") == pytest.approx(1.0)
        assert sol.telemetry.gmin_steps >= 2
        assert sol.telemetry.unrecovered_failures == 0

    def test_gmin_ladder_skips_failed_intermediate_stages(self, monkeypatch):
        """An intermediate stage that fails is skipped, not fatal."""
        import repro.spice.dc as dc_mod

        real = dc_mod.newton_solve
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] in (1, 2):  # direct attempt + first ladder stage
                raise ConvergenceError("seeded failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(dc_mod, "newton_solve", flaky)
        sol = dc_mod.dc_operating_point(self._divider())
        assert sol.voltage("b") == pytest.approx(1.0)
        assert sol.telemetry.step_rejections == 1  # the skipped stage
        assert sol.telemetry.unrecovered_failures == 0


class TestAnalysisAggregation:
    def test_sweep_aggregates_point_telemetry_serially(self, tech018):
        base = DriverBankSpec(
            technology=tech018, n_drivers=1, inductance=5e-9, rise_time=0.5e-9
        )
        result = sweep_driver_count(base, [1, 2], {"const": lambda s: 0.2},
                                    max_workers=1)
        tel = result.telemetry
        assert tel.newton_solves > 0
        assert tel.unrecovered_failures == 0
        assert all(p.telemetry is not None for p in result.points)

    def test_sweep_telemetry_survives_process_pool(self, tech018):
        base = DriverBankSpec(
            technology=tech018, n_drivers=1, inductance=5e-9, rise_time=0.35e-9
        )
        counts = [1, 2, 3]
        parallel = sweep_driver_count(base, counts, {}, max_workers=4)
        tel = parallel.telemetry
        # Per-point records must come back across the pickle boundary with
        # real solver work in them, and aggregate cleanly.
        assert all(p.telemetry is not None for p in parallel.points)
        assert tel.newton_solves > 0
        assert tel.newton_iterations > 0
        assert tel.unrecovered_failures == 0

    def test_aggregate_telemetry_over_simulations(self, tech018):
        spec = DriverBankSpec(
            technology=tech018, n_drivers=2, inductance=5e-9, rise_time=0.5e-9
        )
        sims = [simulate_ssn(spec), simulate_ssn(dataclasses.replace(spec, n_drivers=3))]
        total = aggregate_telemetry(sims)
        assert total.newton_solves == sum(s.telemetry.newton_solves for s in sims)

    def test_montecarlo_records_wall_clock(self, asdm018, tech018):
        result = peak_noise_distribution(
            asdm018, n_drivers=4, inductance=5e-9, vdd=tech018.vdd,
            rise_time=0.3e-9, trials=50, seed=3,
        )
        assert result.telemetry is not None
        assert result.telemetry.phase_seconds.get("montecarlo", 0.0) > 0.0
        assert result.telemetry.unrecovered_failures == 0
