"""The surrogate tier: fit, validity routing, the answer path, persistence.

The serving contract under test: an in-region query is answered purely
from the fitted closed forms (zero Newton solves, ``surrogate_hits``
tagged), anything the model cannot vouch for — out-of-box, wrong
topology, a blown error bound — is refused with a reason the caller can
read, ``"surrogate"`` is no engine name, and the fitted model survives a
JSON round trip through the service store unchanged.  The server's
fallthrough to the full engines is covered in ``test_service_server.py``.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.engine import ENGINES
from repro.analysis.campaign import CampaignRunner
from repro.analysis.simulate import simulate_many, simulate_ssn
from repro.process import get_technology
from repro.service import ResultStore, surrogate_key
from repro.service.store import surrogate_from_record, surrogate_record
from repro.surrogate import (
    REGIONS_BY_TOPOLOGY,
    SurrogateModel,
    SurrogateRegistry,
    ValidityRegion,
    fit_surrogate,
    topology_signature,
    training_specs,
)

#: A small, cheap training box used by most tests (8 corners + center).
BOX = dict(n_drivers=(2, 6), inductance=(2e-9, 5e-9), rise_time=(0.4e-9, 0.7e-9))


@pytest.fixture(scope="module")
def model():
    """One fitted L-only surrogate shared by the module (fits are golden sims)."""
    return fit_surrogate("tsmc018", **BOX)


@pytest.fixture()
def tech():
    return get_technology("tsmc018")


def in_region_spec(tech, **overrides):
    knobs = dict(n_drivers=4, inductance=3e-9, rise_time=0.5e-9)
    knobs.update(overrides)
    return DriverBankSpec(technology=tech, **knobs)


class TestTopologySignature:
    def test_shapes(self, tech):
        assert topology_signature(in_region_spec(tech)) == "l"
        assert topology_signature(in_region_spec(tech, capacitance=10e-12)) == "lc"
        assert topology_signature(in_region_spec(tech, resistance=0.5)) == "l+r"
        spec = in_region_spec(
            tech, n_drivers=2, capacitance=10e-12, input_offsets=(0.0, 1e-11))
        assert topology_signature(spec) == "lc+skew"


class TestValidityRegion:
    def test_bounds_round_trip(self):
        region = ValidityRegion.from_bounds(
            n_drivers=(2, 6), inductance=(2e-9, 5e-9))
        assert region.bounds() == {
            "n_drivers": (2.0, 6.0), "inductance": (2e-9, 5e-9)}

    def test_check_inside_and_outside(self, tech):
        region = ValidityRegion.from_bounds(**BOX)
        assert region.check(in_region_spec(tech)) is None
        reason = region.check(in_region_spec(tech, n_drivers=40))
        assert reason is not None and reason.startswith("validity-box: n_drivers")

    def test_guard_widens_the_box(self, tech):
        strict = ValidityRegion.from_bounds(**BOX)
        guarded = ValidityRegion.from_bounds(guard=0.25, **BOX)
        spec = in_region_spec(tech, n_drivers=7)  # one past the 6-driver edge
        assert strict.check(spec) is not None
        assert guarded.check(spec) is None  # 0.25 * (6 - 2) = 1 driver slack

    def test_payload_round_trip(self):
        region = ValidityRegion.from_bounds(guard=0.1, **BOX)
        assert ValidityRegion.from_payload(region.as_payload()) == region

    def test_invalid_interval_and_guard_raise(self):
        with pytest.raises(ValueError):
            ValidityRegion.from_bounds(n_drivers=(6, 2))
        with pytest.raises(ValueError):
            ValidityRegion.from_bounds(guard=-0.1, n_drivers=(2, 6))


class TestFit:
    def test_fit_records_tight_error_bound(self, model):
        assert model.key == ("tsmc018", "l", "first_order")
        assert model.operating_region == "first_order"
        assert model.n_training == 9  # 2^3 corners + center
        assert 0 < model.error.max_abs_percent <= model.tolerance_percent

    def test_in_region_answer_tracks_golden(self, model, tech):
        spec = in_region_spec(tech)
        answer = model.answer(spec)
        golden = simulate_ssn(spec)
        err = abs(answer.peak_voltage - golden.peak_voltage) / golden.peak_voltage
        assert err * 100 <= model.tolerance_percent
        assert answer.error_bound_percent == model.error.max_abs_percent

    def test_calibration_tightens_the_bound(self):
        raw = fit_surrogate("tsmc018", calibrate=False, **BOX)
        calibrated = fit_surrogate("tsmc018", **BOX)
        assert calibrated.error.max_abs_percent <= raw.error.max_abs_percent

    def test_payload_round_trip_is_exact(self, model):
        payload = json.loads(json.dumps(model.as_payload()))
        assert SurrogateModel.from_payload(payload) == model

    def test_wrong_schema_version_refuses_to_load(self, model):
        payload = model.as_payload()
        payload["surrogate_schema"] = 999
        with pytest.raises(ValueError, match="schema"):
            SurrogateModel.from_payload(payload)

    def test_training_grid_is_corners_plus_center(self, tech, model):
        specs = training_specs(
            tech, model.region, capacitance_knob=False,
            driver_strength=1.0, load_capacitance=10e-12)
        assert len(specs) == 9
        counts = {s.n_drivers for s in specs}
        assert counts == {2, 4, 6}

    def test_fit_rejects_unknown_engine_and_thin_grids(self, monkeypatch):
        # An unknown engine fails up front, before the I-V sweep runs.
        def no_sweep(*args, **kwargs):
            raise AssertionError("the I-V sweep ran before the engine check")

        monkeypatch.setattr("repro.surrogate.fit.sweep_id_vg", no_sweep)
        with pytest.raises(ValueError, match="unknown engine"):
            fit_surrogate("tsmc018", engine="surrogate", **BOX)
        with pytest.raises(ValueError, match="samples_per_knob"):
            fit_surrogate("tsmc018", samples_per_knob=1, **BOX)

    def test_lc_box_straddling_damping_regions_raises(self):
        with pytest.raises(ValueError, match="straddles damping regions"):
            fit_surrogate("tsmc018", capacitance=(1e-12, 100e-12), **BOX)


class TestRefusals:
    def test_out_of_box_refuses(self, model, tech):
        reason = model.validate(in_region_spec(tech, n_drivers=40))
        assert reason.startswith("validity-box:")

    def test_template_mismatch_refuses(self, model, tech):
        reason = model.validate(in_region_spec(tech, driver_strength=2.0))
        assert reason.startswith("template:")

    def test_blown_error_bound_refuses_everything(self, model, tech):
        strict = dataclasses.replace(model, tolerance_percent=1e-6)
        reason = strict.validate(in_region_spec(tech))
        assert reason.startswith("error-bound:")

    def test_wrong_technology_refuses(self, model):
        spec = in_region_spec(get_technology("tsmc025"))
        assert model.validate(spec).startswith("technology:")


class TestRegistry:
    def test_hit_miss_refusal_routing(self, model, tech):
        registry = SurrogateRegistry()
        hit, reason = registry.lookup(in_region_spec(tech))
        assert hit is None and reason is None  # empty registry: a miss
        registry.register(model)
        hit, reason = registry.lookup(in_region_spec(tech))
        assert hit is model and reason is None
        hit, reason = registry.lookup(in_region_spec(tech, n_drivers=40))
        assert hit is None and reason.startswith("validity-box:")

    def test_unsupported_topology_is_a_miss(self, model, tech):
        registry = SurrogateRegistry()
        registry.register(model)
        hit, reason = registry.lookup(in_region_spec(tech, resistance=0.5))
        assert hit is None and reason is None


class TestServingPath:
    """The registry's answer path: ``lookup`` then ``model.simulation``."""

    def test_simulation_does_zero_solver_work(self, model, tech):
        spec = in_region_spec(tech)
        sim = model.simulation(spec)
        assert sim.telemetry.extras.get("surrogate_hits") == 1
        assert sim.telemetry.newton_iterations == 0
        assert sim.peak_voltage == pytest.approx(model.answer(spec).peak_voltage)

    def test_surrogate_is_not_an_engine(self, tech):
        assert "surrogate" not in ENGINES
        with pytest.raises(ValueError, match="unknown engine"):
            simulate_many([in_region_spec(tech)], engine="surrogate")
        with pytest.raises(ValueError, match="unknown engine"):
            CampaignRunner(engine="surrogate").run_specs([in_region_spec(tech)])


class TestPersistence:
    def test_store_round_trip(self, model, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = surrogate_key(model.technology, model.topology,
                            model.operating_region)
        store.put_surrogate(key, model)
        assert store.get_surrogate(key) == model

    def test_get_missing_or_wrong_kind_is_none(self, model, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.get_surrogate("0" * 64) is None

    def test_record_round_trip(self, model):
        record = surrogate_record("k" * 64, model)
        assert record["kind"] == "surrogate"
        assert surrogate_from_record(record) == model

    def test_surrogate_key_is_deterministic_identity(self):
        a = surrogate_key("tsmc018", "l", "first_order")
        assert a == surrogate_key("tsmc018", "l", "first_order")
        assert a != surrogate_key("tsmc018", "lc", "underdamped")
        assert len(a) == 64

    def test_iter_records_filters_by_kind(self, model, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = surrogate_key(model.technology, model.topology,
                            model.operating_region)
        store.put_surrogate(key, model)
        kinds = [r["kind"] for r in store.iter_records(kind="surrogate")]
        assert kinds == ["surrogate"]
        assert list(store.iter_records(kind="simulate")) == []


class TestRegionsByTopology:
    def test_supported_regions(self):
        assert REGIONS_BY_TOPOLOGY["l"] == ("first_order",)
        assert set(REGIONS_BY_TOPOLOGY["lc"]) == {
            "overdamped", "critically_damped", "underdamped"}
