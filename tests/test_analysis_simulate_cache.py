"""Memoized-simulation correctness: key resolution, freezing, telemetry.

The memo key is exactly the call's arguments: no process-wide setting
can change a run, so none is part of the key.  Plus regression coverage
for a former bug in the golden-simulation cache:

* the pooled scalar paths (``simulate_many`` and the campaign runner)
  folded worker results' telemetry into the parent's process-wide counters,
  double counting Newton work whenever a fork-inherited warm memo answered
  inside a worker — now each worker ships back its own metrics registry,
  which holds only the runs it actually executed.

Plus the shared-result safety contract: memoized waveform arrays are
frozen, so accidental mutation raises instead of corrupting later hits.
"""

import pytest

from repro.analysis.campaign import CampaignRunner
from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import (
    simulate_many,
    simulate_ssn_cache_clear,
    simulate_ssn_cache_stats,
    simulate_ssn_cached,
    ssn_memo_key,
)
from repro.observability import metrics as obs_metrics
from repro.spice.telemetry import SolverTelemetry
from repro.spice.transient import TransientOptions


@pytest.fixture(autouse=True)
def _clean_cache_and_metrics():
    simulate_ssn_cache_clear()
    obs_metrics.disable_metrics()
    yield
    simulate_ssn_cache_clear()
    obs_metrics.disable_metrics()


def _counting():
    """Start a fresh registry; return a reader of its telemetry view."""
    registry = obs_metrics.enable_metrics()
    return lambda: SolverTelemetry.from_registry(registry)


@pytest.fixture
def spec(tech018):
    return DriverBankSpec(
        technology=tech018, n_drivers=1, inductance=1e-9, rise_time=0.5e-9
    )


def _cached_and_fresh(spec):
    """``simulate_ssn_cached`` plus whether the call missed the memo."""
    misses = simulate_ssn_cache_stats()["misses"]
    sim = simulate_ssn_cached(spec)
    return sim, simulate_ssn_cache_stats()["misses"] == misses + 1


class TestMemoKeying:
    def test_repeat_call_hits(self, spec):
        first = simulate_ssn_cached(spec)
        again = simulate_ssn_cached(spec)
        assert again is first
        stats = simulate_ssn_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_stats_report_compute_vs_hit(self, spec):
        sim, fresh = _cached_and_fresh(spec)
        assert fresh is True
        again, fresh = _cached_and_fresh(spec)
        assert fresh is False and again is sim

    def test_memo_key_is_exactly_the_arguments(self, spec):
        key = ssn_memo_key(spec)
        assert key == (spec, None, None, None)
        assert hash(key) == hash(ssn_memo_key(spec))
        # Default options spell no options: one key, one memo entry.
        assert ssn_memo_key(spec, options=TransientOptions()) == key
        pinned = TransientOptions(method="be")
        assert ssn_memo_key(spec, 1e-9, 1e-12, pinned) == (spec, 1e-9, 1e-12, pinned)

    def test_options_are_part_of_the_key(self, spec):
        """Other options are another key and a recompute, and asking again
        for the first returns its memoized result."""
        baseline = simulate_ssn_cached(spec)
        other = simulate_ssn_cached(spec, options=TransientOptions(method="be"))
        assert other is not baseline
        assert other.telemetry.extras.get("backend_dense_lu") == 1
        again, fresh = _cached_and_fresh(spec)
        assert fresh is False and again is baseline


class TestFrozenResults:
    def test_memoized_waveforms_reject_mutation(self, spec):
        sim = simulate_ssn_cached(spec)
        for wf in (sim.ssn, sim.inductor_current, sim.driver_current,
                   sim.input_voltage, sim.output_voltage):
            with pytest.raises(ValueError):
                wf.y[0] = 1.0
            with pytest.raises(ValueError):
                wf.t[0] = 1.0

    def test_hit_returns_the_same_frozen_object(self, spec):
        first = simulate_ssn_cached(spec)
        again = simulate_ssn_cached(spec)
        assert again is first
        assert not again.ssn.y.flags.writeable


class TestPooledTelemetry:
    def _specs(self, tech, counts):
        return [
            DriverBankSpec(technology=tech, n_drivers=n, inductance=1e-9,
                           rise_time=0.5e-9)
            for n in counts
        ]

    def test_fresh_runs_record_session_telemetry(self, tech018):
        specs = self._specs(tech018, (1, 2))
        counted = _counting()
        simulate_many(specs, max_workers=2, engine="scalar")
        assert counted().newton_solves > 0

    def test_memo_hits_do_not_rerecord_session_telemetry(self, tech018):
        """The former double-count: pool workers fork with a warm memo.

        Everything below was already simulated (and its Newton work
        recorded) before the registry is armed; whether the map
        then runs serially (in-process memo hits) or in fork-started
        workers (inherited-memo hits), no *new* solver work happens, so
        the registry must stay at zero.
        """
        specs = self._specs(tech018, (1, 2))
        for spec in specs:
            simulate_ssn_cached(spec)
        counted = _counting()
        simulate_many(specs * 2, max_workers=2, engine="scalar")
        assert counted().newton_solves == 0
        assert counted().newton_iterations == 0

    def test_campaign_memo_hits_do_not_rerecord_session_telemetry(self, tech018):
        """The same warm-memo case through a pooled campaign.

        The campaign's scalar rung used to re-record every worker record's
        telemetry, memo hit or not, so a warm memo counted Newton work
        that never ran.
        """
        specs = self._specs(tech018, (1, 2, 3, 4))
        for spec in specs:
            simulate_ssn_cached(spec)
        counted = _counting()
        CampaignRunner(max_workers=2, engine="scalar").run_specs(specs)
        assert counted().newton_solves == 0
        assert counted().newton_iterations == 0

    def test_duplicate_specs_in_one_pooled_map_count_once(self, tech018):
        """Four duplicates across two workers solve at most twice.

        The former bug recorded every worker *result* (4x one run's
        solves); worker registries hold fresh computes only — at most one
        per worker, exactly one on the serial fallback.
        """
        (spec,) = self._specs(tech018, (3,))
        from repro.analysis.simulate import simulate_ssn

        counted = _counting()
        simulate_ssn(spec)
        per_run = counted().newton_solves
        assert per_run > 0
        simulate_ssn_cache_clear()
        counted = _counting()
        simulate_many([spec] * 4, max_workers=2, engine="scalar")
        assert per_run <= counted().newton_solves <= 2 * per_run
