"""Persistent result store: key contract, atomicity, and quarantine.

The store's one promise is "equal key, bit-identical result" — so these
tests pin the key function (its exact inputs and literal values, no
process setting in it, defaults and explicit defaults spelling the same
key), the JSON round trip (arrays come
back exactly equal and frozen), and every validation failure path
(garbage, stolen name, stale schema, tampered payload), each of which
must quarantine-and-miss rather than crash or serve a wrong answer.  The
fault injector's ``crash-write`` rule proves a torn write can never land
under the committed name, and hypothesis fuzzes the loader: arbitrary
bytes, flipped bytes and truncations end in quarantine plus a miss,
never an exception.
"""

import dataclasses
import hashlib
import json
import os
import tempfile
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import (
    default_stop_time,
    default_time_step,
    simulate_ssn,
    ssn_memo_key,
)
from repro.observability import metrics as obs_metrics
from repro.process import TSMC018, get_technology
from repro.service import (
    KEY_SCHEME_VERSION,
    RECORD_SCHEMA_VERSION,
    ResultStore,
    canonical_request,
    result_key,
    simulation_from_record,
    simulation_record,
    surrogate_key,
)
from repro.service.store import WAVEFORM_FIELDS, read_head
from repro.spice.transient import TransientOptions
from repro.testing import faults
from repro.testing.faults import FaultRule, InjectedCrash


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


@pytest.fixture
def spec(tech018):
    return DriverBankSpec(
        technology=tech018, n_drivers=2, inductance=1e-9, rise_time=0.5e-9
    )


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


class TestKeys:
    def test_key_is_stable_and_full_length(self, spec):
        key = result_key(spec)
        assert key == result_key(spec)
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")

    def test_explicit_defaults_spell_the_same_key(self, spec):
        payload = canonical_request(spec)
        assert result_key(spec) == result_key(
            spec, tstop=float(payload["tstop"]), dt=float(payload["dt"])
        )

    def test_inputs_distinguish_keys(self, spec):
        base = result_key(spec)
        assert result_key(spec, options=TransientOptions(abstol=1e-10)) != base
        assert result_key(spec, kind="montecarlo") != base
        assert result_key(spec, extra={"trials": 8}) != base
        import dataclasses

        other = dataclasses.replace(spec, n_drivers=3)
        assert result_key(other) != base

    def test_default_bank_key_is_pinned(self):
        """The default 4-driver tsmc018 bank (``/simulate {"n_drivers": 4}``)
        under scheme 4.  A change here orphans every stored record."""
        default_bank = DriverBankSpec(
            technology=TSMC018, n_drivers=4, inductance=5e-9, rise_time=0.5e-9)
        assert result_key(default_bank) == (
            "4dae74f5ccca0ba2df699a1878b70e894a432f1c86462afa542512fd97da584b")

    def test_surrogate_key_is_pinned(self):
        """Surrogate keys name a slot: a refit must overwrite its old record,
        so the value may not move with the result-key scheme."""
        assert surrogate_key("tsmc018", "l", "first_order") == (
            "694c37845025c8b9de69b54e6c41e3982938fc17c2e36938edb8b06e03d0ec53")

    def test_canonical_request_fields(self, spec):
        payload = canonical_request(spec)
        assert set(payload) == {
            "scheme", "kind", "spec", "tstop", "dt", "options", "extra"}
        assert payload["scheme"] == KEY_SCHEME_VERSION == 4

    def test_no_process_setting_enters_a_key(self, spec):
        """A key is a function of the request alone: the memo key is the
        argument tuple, and the store payload renders the same arguments."""
        options = TransientOptions(adaptive=True)
        assert ssn_memo_key(spec, 1e-9, 1e-12, options) == (spec, 1e-9, 1e-12, options)
        payload = canonical_request(spec, 1e-9, 1e-12, options)
        assert (payload["spec"], payload["tstop"], payload["dt"], payload["options"]) \
            == (repr(spec), repr(1e-9), repr(1e-12), repr(options))

    @pytest.mark.parametrize("scheme", [1, 2, 3])
    def test_old_scheme_record_stays_on_disk_but_is_never_served(
            self, store, spec, scheme):
        """Scheme 2 dropped the compiled-kernel backend entry and the
        seed-engine flag of the options repr; scheme 3 dropped the backend
        snapshot; scheme 4 retired the sparse tier, which a scheme-3
        default-options record may have run on.  A record stored under an
        older key is still a valid record (no quarantine), but no scheme-4
        request hashes to it."""
        payload = canonical_request(spec)
        payload["scheme"] = scheme
        if scheme < 3:
            payload["backend"] = [["engine", "scalar"], ["sparse", "auto"]]
        if scheme == 1:
            payload["backend"] = sorted(payload["backend"] + [["kernel", "numpy"]])
        old_key = hashlib.sha256(json.dumps(
            payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
        store.put(old_key, simulation_record(old_key, simulate_ssn(spec)))

        assert store.load(old_key) is not None
        assert [r["key"] for r in store.iter_records()] == [old_key]
        assert store.quarantined() == []
        requests = [
            result_key(spec),
            result_key(spec, options=TransientOptions()),
        ]
        assert old_key not in requests
        assert all(store.load(key) is None for key in requests)
        assert len(store) == 1 and store.quarantined() == []


_positive = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
_offsets = lambda n: st.none() | st.tuples(*[_positive(0.0, 1e-9)] * n)


@st.composite
def _specs(draw):
    """Valid driver-bank specs over every field of the key contract."""
    n_drivers = draw(st.integers(1, 16))
    return DriverBankSpec(
        technology=get_technology(draw(st.sampled_from(
            ["tsmc018", "tsmc025", "tsmc035"]))),
        n_drivers=n_drivers,
        inductance=draw(_positive(1e-10, 1e-8)),
        rise_time=draw(_positive(1e-11, 2e-9)),
        capacitance=draw(st.none() | _positive(1e-13, 1e-10)),
        resistance=draw(_positive(0.0, 10.0)),
        load_capacitance=draw(_positive(1e-13, 1e-10)),
        driver_strength=draw(_positive(0.1, 8.0)),
        collapse=draw(st.booleans()),
        input_offsets=draw(_offsets(n_drivers)),
    )


#: One non-default value per ``TransientOptions`` field.
_OPTION_CHANGES = {
    "method": st.just("be"),
    "gmin": _positive(0.0, 1e-9),
    "max_newton": st.integers(1, 500),
    "abstol": _positive(1e-15, 1e-3),
    "reltol": _positive(1e-12, 1e-2),
    "adaptive": st.just(True),
    "lte_rtol": _positive(1e-9, 1e-1),
    "lte_atol": _positive(1e-12, 1e-2),
    "max_growth": _positive(1.01, 10.0),
    "min_dt": _positive(1e-18, 1e-9),
}
_OPTION_DEFAULTS = {f.name: f.default for f in dataclasses.fields(TransientOptions)}


class TestKeyProperties:
    """Hypothesis over the key contract: a default spelled out is the same
    request, and every semantic change is a different one."""

    @settings(max_examples=60, deadline=None)
    @given(spec=_specs(),
           explicit=st.sets(st.sampled_from(["tstop", "dt", "options"])),
           named=st.sets(st.sampled_from(sorted(_OPTION_DEFAULTS))))
    def test_explicit_defaults_give_the_defaulted_key(self, spec, explicit, named):
        kwargs = {}
        if "tstop" in explicit:
            kwargs["tstop"] = default_stop_time(spec)
        if "dt" in explicit:
            kwargs["dt"] = default_time_step(spec)
        if "options" in explicit:
            kwargs["options"] = TransientOptions(
                **{name: _OPTION_DEFAULTS[name] for name in named})
        assert result_key(spec, **kwargs) == result_key(spec)
        assert canonical_request(spec, **kwargs) == canonical_request(spec)
        if "options" in explicit:
            assert (ssn_memo_key(spec, options=kwargs["options"])
                    == ssn_memo_key(spec))

    @settings(max_examples=120, deadline=None)
    @given(spec=_specs(), data=st.data())
    def test_any_semantic_change_gives_a_new_key(self, spec, data):
        base = result_key(spec)
        field = data.draw(st.sampled_from(
            ["spec", "tstop", "dt", "options", "kind", "extra"]))
        if field == "spec":
            name = data.draw(st.sampled_from(
                [f.name for f in dataclasses.fields(DriverBankSpec)]))
            if name == "input_offsets":
                value = data.draw(_offsets(spec.n_drivers))
            else:
                assume(name != "n_drivers" or spec.input_offsets is None)
                value = getattr(data.draw(_specs()), name)
            assume(value != getattr(spec, name))
            changed = result_key(dataclasses.replace(spec, **{name: value}))
        elif field == "tstop":
            default = default_stop_time(spec)
            changed = result_key(spec, tstop=data.draw(
                _positive(default / 4, default * 4).filter(lambda v: v != default)))
        elif field == "dt":
            default = default_time_step(spec)
            changed = result_key(spec, dt=data.draw(
                _positive(default / 4, default * 4).filter(lambda v: v != default)))
        elif field == "options":
            name = data.draw(st.sampled_from(sorted(_OPTION_CHANGES)))
            value = data.draw(_OPTION_CHANGES[name].filter(
                lambda v: v != _OPTION_DEFAULTS[name]))
            changed = result_key(spec, options=TransientOptions(**{name: value}))
        elif field == "kind":
            changed = result_key(spec, kind=data.draw(
                st.text(min_size=1).filter(lambda k: k != "simulate")))
        else:
            changed = result_key(spec, extra=data.draw(st.dictionaries(
                st.text(), st.integers() | st.text(), min_size=1)))
        assert changed != base


class TestRoundTrip:
    def test_simulation_round_trip_is_bit_identical(self, store, spec):
        sim = simulate_ssn(spec)
        key = result_key(spec)
        store.put(key, simulation_record(key, sim, meta={"engine": "scalar"}))
        assert key in store and len(store) == 1
        loaded = store.get_simulation(key, spec)
        assert loaded is not None
        assert loaded.peak_voltage == sim.peak_voltage
        assert loaded.peak_time == sim.peak_time
        for name in ("ssn", "inductor_current", "driver_current",
                     "input_voltage", "output_voltage"):
            fresh = getattr(sim, name)
            back = getattr(loaded, name)
            np.testing.assert_array_equal(back.t, fresh.t)
            np.testing.assert_array_equal(back.y, fresh.y)

    def test_loaded_waveforms_are_frozen(self, store, spec):
        key = result_key(spec)
        store.put_simulation(key, simulate_ssn(spec))
        loaded = store.get_simulation(key, spec)
        with pytest.raises(ValueError):
            loaded.ssn.y[0] = 1.0
        with pytest.raises(ValueError):
            loaded.ssn.t[0] = 1.0

    def test_kind_mismatch_is_a_typed_miss(self, store, spec):
        key = result_key(spec)
        store.put_simulation(key, simulate_ssn(spec))
        assert store.get_montecarlo(key) is None
        assert store.get_simulation(key, spec) is not None


class TestQuarantine:
    def _put_one(self, store, spec):
        key = result_key(spec)
        store.put_simulation(key, simulate_ssn(spec))
        return key, store.path_for(key)

    def test_garbage_record_is_quarantined(self, store, spec):
        registry = obs_metrics.enable_metrics()
        try:
            key, path = self._put_one(store, spec)
            path.write_text("{not json")
            assert store.load(key) is None
            assert [p.name for p in store.quarantined()] == [path.name]
            assert not path.exists()
            counter = registry.get("repro_store_quarantined_total",
                                   {"reason": "unreadable"})
            assert counter is not None and counter.value == 1
        finally:
            obs_metrics.disable_metrics()

    def test_non_object_record_is_quarantined(self, store, spec):
        key, path = self._put_one(store, spec)
        path.write_text(json.dumps([1, 2, 3]))
        assert store.load(key) is None
        assert store.quarantined()

    def test_schema_bump_is_quarantined(self, store, spec):
        key, path = self._put_one(store, spec)
        record = json.loads(path.read_text())
        record["schema"] = RECORD_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record))
        assert store.load(key) is None
        assert store.quarantined()

    def test_key_mismatch_is_quarantined(self, store, spec):
        key, path = self._put_one(store, spec)
        stolen = result_key(spec, extra={"other": 1})
        stolen_path = store.path_for(stolen)
        stolen_path.parent.mkdir(parents=True, exist_ok=True)
        os.replace(path, stolen_path)
        assert store.load(stolen) is None
        assert store.quarantined()

    def test_checksum_tamper_is_quarantined(self, store, spec):
        key, path = self._put_one(store, spec)
        record = json.loads(path.read_text())
        record["peak_voltage"] = record["peak_voltage"] * 2.0
        path.write_text(json.dumps(record))
        assert store.load(key) is None
        assert store.quarantined()

    def test_quarantine_then_rewrite_recovers(self, store, spec):
        key, path = self._put_one(store, spec)
        path.write_text("torn")
        assert store.load(key) is None
        store.put_simulation(key, simulate_ssn(spec))
        assert store.get_simulation(key, spec) is not None


class TestCrashWrite:
    def test_injected_crash_leaves_no_record_and_no_temp_file(self, store, spec):
        sim = simulate_ssn(spec)
        key = result_key(spec)
        faults.install_faults([FaultRule(kind="crash-write", phase="store")],
                              mirror_env=False)
        with pytest.raises(InjectedCrash):
            store.put_simulation(key, sim)
        assert key not in store
        assert store.load(key) is None
        leftovers = [p for p in store.root.rglob("*") if p.is_file()]
        assert leftovers == []
        faults.clear_faults()
        store.put_simulation(key, sim)
        loaded = store.get_simulation(key, spec)
        assert loaded is not None and loaded.peak_voltage == sim.peak_voltage

    def test_store_scope_does_not_catch_other_phases(self, store, spec):
        faults.install_faults(
            [FaultRule(kind="crash-write", phase="checkpointing")],
            mirror_env=False)
        key = result_key(spec)
        store.put_simulation(key, simulate_ssn(spec))
        assert store.get_simulation(key, spec) is not None

    def test_record_rewrite_is_idempotent(self, store, spec):
        sim = simulate_ssn(spec)
        key = result_key(spec)
        first = store.put_simulation(key, sim).read_text()
        second = store.put_simulation(key, sim).read_text()
        assert first == second
        record = json.loads(first)
        rebuilt = simulation_from_record(record, spec)
        np.testing.assert_array_equal(rebuilt.ssn.y, sim.ssn.y)


def _compact(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


#: One golden simulation shared by the fuzz cases (hypothesis re-runs a
#: test body many times, so per-test fixtures would recompute it).
_FUZZ_SPEC = DriverBankSpec(technology=TSMC018, n_drivers=1,
                            inductance=1e-9, rise_time=0.5e-9)
_FUZZ_KEY = result_key(_FUZZ_SPEC)


@pytest.fixture(scope="module")
def valid_bytes():
    """The file bytes ``put`` writes for one golden simulation."""
    with tempfile.TemporaryDirectory() as root:
        path = ResultStore(root).put_simulation(_FUZZ_KEY, simulate_ssn(_FUZZ_SPEC))
        return path.read_bytes()


def _load_written(data: bytes):
    """Write ``data`` under the fuzz key; return (loaded sim, quarantined)."""
    with tempfile.TemporaryDirectory() as root:
        store = ResultStore(root)
        path = store.path_for(_FUZZ_KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        return store.get_simulation(_FUZZ_KEY, _FUZZ_SPEC), store.quarantined()


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["schema", "key", "kind", "checksum",
                                       "waveforms", "meta"]) | st.text(max_size=4),
                      inner, max_size=4),
    max_leaves=12,
)


class TestLayout:
    def test_checksum_first_compact_body_waveforms_last(self, store, spec):
        sim = simulate_ssn(spec)
        key = result_key(spec)
        record = simulation_record(key, sim, meta={"engine": "scalar"})
        data = store.put_simulation(key, sim, meta={"engine": "scalar"}).read_bytes()
        body = _compact(record)
        digest = hashlib.sha256(body).hexdigest()
        assert data == b'{"checksum":"' + digest.encode() + b'",' + body[1:] + b"\n"
        parsed = json.loads(data)
        assert list(parsed)[0] == "checksum" and list(parsed)[-1] == "waveforms"
        assert parsed == dict(json.loads(body), checksum=digest)

        stored = store.load(key)
        assert stored.waveforms_json == _compact(record["waveforms"])
        assert data.endswith(b',"waveforms":' + stored.waveforms_json + b"}\n")
        assert "waveforms" not in stored.head
        assert stored.head == {k: v for k, v in parsed.items() if k != "waveforms"}
        assert stored.decode() == parsed

    def test_put_renders_once_and_returns_what_load_returns(
            self, store, spec, monkeypatch):
        from repro.service import store as store_module

        key = result_key(spec)
        record = simulation_record(key, simulate_ssn(spec))
        dumps = []
        monkeypatch.setattr(store_module, "json", types.SimpleNamespace(
            loads=json.loads,
            dumps=lambda *a, **k: dumps.append(1) or json.dumps(*a, **k)))
        written = store.put(key, record)
        monkeypatch.undo()
        assert len(dumps) == 1
        assert written == store.load(key)

    def test_waveforms_must_sort_last(self, store):
        with pytest.raises(ValueError, match="sort last"):
            store.put("ab" * 32, {"kind": "simulate", "waveforms": {}, "zz": 1})
        assert len(store) == 0

    def test_montecarlo_record_has_no_waveform_slice(self, store, spec):
        from repro.analysis.montecarlo import MonteCarloResult

        result = MonteCarloResult(samples=np.array([0.1, 0.2]), mean=0.15,
                                  std=0.05, p95=0.2, nominal=0.14)
        key = result_key(spec, kind="montecarlo")
        store.put_montecarlo(key, result, meta={"waveforms": [1, 2]})
        stored = store.load(key)
        assert stored.waveforms_json is None
        assert stored.head["meta"] == {"waveforms": [1, 2]}
        back = store.get_montecarlo(key)
        np.testing.assert_array_equal(back.samples, result.samples)

    def test_nested_meta_waveforms_key_round_trips(self, store, spec):
        sim = simulate_ssn(spec)
        key = result_key(spec)
        meta = {"engine": "scalar", "waveforms": {"t": [9.0], "note": "nested"}}
        store.put_simulation(key, sim, meta=meta)
        stored = store.load(key)
        assert stored.head["meta"] == meta
        assert stored.waveforms_json == _compact(
            simulation_record(key, sim)["waveforms"])
        loaded = store.get_simulation(key, spec)
        np.testing.assert_array_equal(loaded.ssn.y, sim.ssn.y)
        assert [r["meta"] for r in store.iter_records()] == [meta]
        assert store.quarantined() == []


class TestLoaderFuzz:
    """``ResultStore.load``: any bytes end in a round trip or in quarantine
    plus a miss — never an exception."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.binary(max_size=300),
        _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=120).map(lambda b: b'{"checksum":"' + b),
    ))
    def test_arbitrary_bytes_are_quarantined(self, data):
        loaded, quarantined = _load_written(data)
        assert loaded is None and len(quarantined) == 1
        read_head(quarantined[0])  # the unvalidated scan never raises either

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_single_byte_flip_is_quarantined(self, valid_bytes, data):
        pos = data.draw(st.integers(0, len(valid_bytes) - 1), label="pos")
        flip = data.draw(st.integers(1, 255), label="xor")
        mutated = bytearray(valid_bytes)
        mutated[pos] ^= flip
        loaded, quarantined = _load_written(bytes(mutated))
        assert loaded is None and len(quarantined) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_truncation_is_quarantined(self, valid_bytes, data):
        cut = data.draw(st.integers(0, len(valid_bytes) - 1), label="cut")
        loaded, quarantined = _load_written(valid_bytes[:cut])
        assert loaded is None and len(quarantined) == 1

    def test_valid_bytes_round_trip(self, valid_bytes):
        loaded, quarantined = _load_written(valid_bytes)
        assert quarantined == []
        fresh = simulate_ssn(_FUZZ_SPEC)
        for name in WAVEFORM_FIELDS:
            assert np.array_equal(getattr(loaded, name).y, getattr(fresh, name).y)

    def test_schema_1_spaced_layout_is_quarantined_as_schema(self, store, spec):
        """The previous layout: spaced ``json.dumps(sort_keys=True)`` text
        whose checksum hashed the re-rendered compact body."""
        registry = obs_metrics.enable_metrics()
        try:
            key = result_key(spec)
            record = dict(simulation_record(key, simulate_ssn(spec)), schema=1)
            record["checksum"] = hashlib.sha256(_compact(record)).hexdigest()
            path = store.path_for(key)
            path.parent.mkdir(parents=True)
            path.write_text(json.dumps(record, sort_keys=True) + "\n")
            assert store.get_simulation(key, spec) is None
            assert [p.name for p in store.quarantined()] == [path.name]
            counter = registry.get("repro_store_quarantined_total",
                                   {"reason": "schema"})
            assert counter is not None and counter.value == 1
        finally:
            obs_metrics.disable_metrics()

    @pytest.mark.parametrize("reader", ["get_simulation", "iter_records"])
    def test_checksum_valid_non_json_waveforms_are_unreadable(
            self, store, spec, reader):
        registry = obs_metrics.enable_metrics()
        try:
            key = result_key(spec)
            head = {k: v for k, v in simulation_record(
                key, simulate_ssn(spec)).items() if k != "waveforms"}
            body = _compact(head)[:-1] + b',"waveforms":{"ssn":[1,2}}'
            digest = hashlib.sha256(body).hexdigest().encode()
            path = store.path_for(key)
            path.parent.mkdir(parents=True)
            path.write_bytes(b'{"checksum":"' + digest + b'",' + body[1:] + b"\n")
            # The checksum holds, so load hands the bytes on undecoded ...
            assert store.load(key).waveforms_json == b'{"ssn":[1,2}'
            # ... and the first reader that decodes them quarantines the file.
            if reader == "get_simulation":
                assert store.get_simulation(key, spec) is None
            else:
                assert list(store.iter_records()) == []
            assert [p.name for p in store.quarantined()] == [path.name]
            counter = registry.get("repro_store_quarantined_total",
                                   {"reason": "unreadable"})
            assert counter is not None and counter.value == 1
        finally:
            obs_metrics.disable_metrics()
