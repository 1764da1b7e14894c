"""The HTTP serving layer: hit / miss / dedup semantics end to end.

Each test runs a real :class:`~repro.service.server.SsnService` on an
ephemeral port inside the test's own event loop and talks to it over a
raw socket (:func:`repro.service.client.arequest`), so the hand-rolled
HTTP plumbing is exercised along with the serving logic.  The headline
guarantees: a repeat query is answered from the persistent store with
*zero* Newton solves and a bit-identical payload, identical concurrent
requests collapse onto exactly one computation, and a corrupt or
stale-schema record costs one recompute, never a crash or a wrong answer.
"""

import asyncio
import contextlib
import json
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
from repro.analysis.simulate import simulate_ssn, simulate_ssn_cache_clear
from repro.observability import events as obs_events
from repro.observability import metrics as obs_metrics
from repro.process import get_technology
from repro.service import RECORD_SCHEMA_VERSION, ResultStore, SsnService, arequest
from repro.service import server as server_module
from repro.service import store as store_module
from repro.service.store import WAVEFORM_FIELDS
from repro.spice.telemetry import SolverTelemetry
from repro.testing import faults
from repro.testing.faults import FaultRule

#: One small, fast request body shared by most tests.
PARAMS = {"n_drivers": 2, "inductance": 1e-9, "rise_time": 0.5e-9,
          "tech": "tsmc018"}


@pytest.fixture(autouse=True)
def registry():
    """Fresh per-test process state: metrics, memo, faults."""
    simulate_ssn_cache_clear()
    faults.clear_faults()
    registry = obs_metrics.enable_metrics()
    yield registry
    simulate_ssn_cache_clear()
    faults.clear_faults()
    obs_metrics.disable_metrics()


@contextlib.asynccontextmanager
async def service_on(tmp_path, **kwargs):
    service = SsnService(store_root=tmp_path / "store", port=0, **kwargs)
    await service.start()
    try:
        yield service
    finally:
        await service.close()


async def post(service, path, payload):
    return await arequest("127.0.0.1", service.port, "POST", path, payload)


def spec_of(params):
    return DriverBankSpec(
        technology=get_technology(params.get("tech", "tsmc018")),
        n_drivers=params["n_drivers"],
        inductance=params["inductance"],
        rise_time=params["rise_time"],
    )


async def raw_exchange(service, request: bytes) -> bytes:
    """Send raw request bytes; return the raw response."""
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    writer.write(request)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    return raw


def post_bytes(path: str, body: bytes) -> bytes:
    return (b"POST %s HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (path.encode(), len(body), body))


class JsonSpy:
    """Stands in for a module's ``json``, keeping the text of every call."""

    JSONDecodeError = json.JSONDecodeError

    def __init__(self):
        self.texts = []

    def loads(self, text, *args, **kwargs):
        self.texts.append(bytes(text) if isinstance(text, (bytes, bytearray))
                          else text.encode())
        return json.loads(text, *args, **kwargs)

    def dumps(self, obj, *args, **kwargs):
        text = json.dumps(obj, *args, **kwargs)
        self.texts.append(text.encode())
        return text


class TestSimulate:
    def test_miss_then_hit_is_bit_identical_with_zero_solves(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                status, first = await post(service, "/simulate", PARAMS)
            assert status == 200 and first["outcome"] == "miss"
            # A "new process": cold in-process memo, fresh metrics
            # registry, same persistent store.  The repeat answer must
            # come from the store alone.
            simulate_ssn_cache_clear()
            registry = obs_metrics.enable_metrics()
            async with service_on(tmp_path) as service:
                status, again = await post(service, "/simulate", PARAMS)
            assert status == 200 and again["outcome"] == "hit"
            assert SolverTelemetry.from_registry(registry).newton_solves == 0
            assert again["key"] == first["key"]
            assert again["peak_voltage"] == first["peak_voltage"]
            assert again["peak_time"] == first["peak_time"]
            assert again["waveforms"] == first["waveforms"]
            return first

        first = asyncio.run(scenario())
        # The served numbers are the golden simulation's, exactly: JSON
        # floats render via repr, the shortest exact round trip.
        sim = simulate_ssn(spec_of(PARAMS))
        assert first["peak_voltage"] == sim.peak_voltage
        assert first["waveforms"]["ssn"]["y"] == sim.ssn.y.tolist()
        assert first["waveforms"]["ssn"]["t"] == sim.ssn.t.tolist()

    def test_waveforms_are_optional(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                params = dict(PARAMS, include_waveforms=False)
                status, payload = await post(service, "/simulate", params)
            assert status == 200
            assert "waveforms" not in payload

        asyncio.run(scenario())

    def test_explicit_options_key_separately(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                _, base = await post(service, "/simulate", PARAMS)
                params = dict(PARAMS, options={"abstol": 1e-10})
                _, tighter = await post(service, "/simulate", params)
            assert base["key"] != tighter["key"]
            assert tighter["outcome"] == "miss"

        asyncio.run(scenario())

    @pytest.mark.parametrize("options", [{}, {"method": "trap", "abstol": 1e-9}],
                             ids=["empty", "named-defaults"])
    def test_default_options_are_no_options(self, tmp_path, options):
        """Options equal to ``TransientOptions()`` are the option-less
        run: one key, one stored record, and the repeat is a hit."""
        async def scenario():
            async with service_on(tmp_path, surrogate=False) as service:
                _, base = await post(service, "/simulate", PARAMS)
                _, again = await post(service, "/simulate",
                                      dict(PARAMS, options=options))
            return base, again

        base, again = asyncio.run(scenario())
        assert again["key"] == base["key"]
        assert (base["outcome"], again["outcome"]) == ("miss", "hit")
        assert len(ResultStore(tmp_path / "store")) == 1


    @pytest.mark.parametrize("include_waveforms", [True, False])
    def test_hit_answers_like_the_miss(self, tmp_path, include_waveforms):
        """The hit splices stored bytes where the miss answered from the
        record it just published: the two must carry the same values."""
        params = dict(PARAMS, include_waveforms=include_waveforms)

        async def scenario():
            async with service_on(tmp_path) as service:
                miss = await raw_exchange(
                    service, post_bytes("/simulate", json.dumps(params).encode()))
                hit = await raw_exchange(
                    service, post_bytes("/simulate", json.dumps(params).encode()))
            return miss, hit

        miss_raw, hit_raw = asyncio.run(scenario())
        miss = json.loads(miss_raw.split(b"\r\n\r\n", 1)[1])
        hit = json.loads(hit_raw.split(b"\r\n\r\n", 1)[1])
        assert (miss.pop("outcome"), hit.pop("outcome")) == ("miss", "hit")
        assert hit == miss
        assert ("waveforms" in hit) is include_waveforms
        if include_waveforms:
            sim = simulate_ssn(spec_of(PARAMS))
            for name in WAVEFORM_FIELDS:
                wf = getattr(sim, name)
                assert np.array_equal(hit["waveforms"][name]["t"], wf.t)
                assert np.array_equal(hit["waveforms"][name]["y"], wf.y)

    def test_hit_never_decodes_or_renders_waveforms(self, tmp_path, monkeypatch):
        loads = []
        real_load = ResultStore.load

        def counted_load(store, key):
            loads.append(key)
            return real_load(store, key)

        async def scenario():
            async with service_on(tmp_path) as service:
                _, miss = await post(service, "/simulate", PARAMS)
                spies = JsonSpy(), JsonSpy()
                monkeypatch.setattr(store_module, "json", spies[0])
                monkeypatch.setattr(server_module, "json", spies[1])
                monkeypatch.setattr(ResultStore, "load", counted_load)
                raw = await raw_exchange(service, post_bytes(
                    "/simulate", json.dumps(PARAMS).encode()))
                monkeypatch.undo()
            return miss, raw, spies

        miss, raw, spies = asyncio.run(scenario())
        hit = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert hit["outcome"] == "hit" and hit["waveforms"] == miss["waveforms"]
        assert loads == [miss["key"]]
        texts = spies[0].texts + spies[1].texts
        assert texts, "the head and the request still go through json"
        waveform_bytes = len(json.dumps(miss["waveforms"]))
        for text in texts:
            assert b'"waveforms"' not in text
            assert len(text) < waveform_bytes / 10

    def test_store_hit_hashes_the_request_once(self, tmp_path, monkeypatch):
        calls = []
        real_result_key = server_module.result_key

        def counted(*args, **kwargs):
            calls.append(args)
            return real_result_key(*args, **kwargs)

        async def scenario():
            async with service_on(tmp_path) as service:
                await post(service, "/simulate", PARAMS)
                monkeypatch.setattr(server_module, "result_key", counted)
                _, hit = await post(service, "/simulate", PARAMS)
            return hit

        hit = asyncio.run(scenario())
        assert hit["outcome"] == "hit"
        assert len(calls) == 1


class TestDedup:
    def test_concurrent_identical_requests_share_one_compute(
            self, tmp_path, registry):
        async def scenario():
            async with service_on(tmp_path) as service:
                # Stall the (single) compute at the campaign's task probe
                # long enough for the followers to arrive and observe the
                # in-flight leader.
                faults.install_faults([FaultRule(kind="stall", seconds=0.5)])
                try:
                    return await asyncio.gather(*(
                        post(service, "/simulate", PARAMS) for _ in range(3)
                    ))
                finally:
                    faults.clear_faults()

        answered = asyncio.run(scenario())
        assert [status for status, _ in answered] == [200, 200, 200]
        outcomes = sorted(payload["outcome"] for _, payload in answered)
        assert outcomes == ["dedup", "dedup", "miss"]
        payloads = [payload for _, payload in answered]
        assert len({p["key"] for p in payloads}) == 1
        assert len({p["peak_voltage"] for p in payloads}) == 1
        computes = registry.get("repro_service_computes_total")
        assert computes is not None and computes.value == 1
        served = registry.get("repro_service_requests_total",
                              {"endpoint": "simulate", "outcome": "dedup"})
        assert served is not None and served.value == 2


class TestStoreRecovery:
    def _store(self, tmp_path):
        return ResultStore(tmp_path / "store")

    def test_corrupt_record_is_quarantined_and_recomputed(
            self, tmp_path, registry):
        async def scenario():
            async with service_on(tmp_path) as service:
                _, first = await post(service, "/simulate", PARAMS)
                store = self._store(tmp_path)
                store.path_for(first["key"]).write_text("{torn")
                simulate_ssn_cache_clear()
                _, again = await post(service, "/simulate", PARAMS)
            return first, again, store

        first, again, store = asyncio.run(scenario())
        assert again["outcome"] == "miss"
        assert again["peak_voltage"] == first["peak_voltage"]
        assert store.quarantined()
        # The recompute re-published a valid record under the same key.
        assert store.load(first["key"]) is not None

    def test_schema_bump_forces_recompute(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                _, first = await post(service, "/simulate", PARAMS)
                store = self._store(tmp_path)
                path = store.path_for(first["key"])
                record = json.loads(path.read_text())
                record["schema"] = RECORD_SCHEMA_VERSION + 1
                path.write_text(json.dumps(record))
                simulate_ssn_cache_clear()
                _, again = await post(service, "/simulate", PARAMS)
            return first, again

        first, again = asyncio.run(scenario())
        assert again["outcome"] == "miss"
        assert again["waveforms"] == first["waveforms"]


class TestSweepAndMonteCarlo:
    def test_sweep_repeat_is_all_hits(self, tmp_path):
        body = {"knob": "n_drivers", "values": [1, 2],
                "inductance": 1e-9, "rise_time": 0.5e-9}

        async def scenario():
            async with service_on(tmp_path) as service:
                _, first = await post(service, "/sweep", body)
                simulate_ssn_cache_clear()
                _, again = await post(service, "/sweep", body)
            return first, again

        first, again = asyncio.run(scenario())
        assert [p["outcome"] for p in first["points"]] == ["miss", "miss"]
        assert [p["outcome"] for p in again["points"]] == ["hit", "hit"]
        assert [p["peak_voltage"] for p in again["points"]] == [
            p["peak_voltage"] for p in first["points"]]

    def test_sweep_points_share_the_simulate_namespace(self, tmp_path):
        """A /simulate answer pre-populates the same spec's sweep point."""
        async def scenario():
            async with service_on(tmp_path) as service:
                _, single = await post(service, "/simulate",
                                       dict(PARAMS, n_drivers=1))
                simulate_ssn_cache_clear()
                body = {"knob": "n_drivers", "values": [1],
                        "inductance": 1e-9, "rise_time": 0.5e-9}
                _, swept = await post(service, "/sweep", body)
            return single, swept

        single, swept = asyncio.run(scenario())
        point = swept["points"][0]
        assert point["key"] == single["key"]
        assert point["outcome"] == "hit"

    def test_sweep_takes_every_knob_of_the_knob_table(self, tmp_path):
        """``inductance`` sweeps like the other knobs, each point keyed as
        the /simulate request for the same spec."""
        body = {"knob": "inductance", "values": [1e-9, 2e-9],
                "n_drivers": 1, "rise_time": 0.5e-9}

        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/sweep", body)

        status, swept = asyncio.run(scenario())
        assert status == 200 and swept["knob"] == "inductance"
        assert [p["key"] for p in swept["points"]] == [
            server_module.result_key(spec_of(dict(body, inductance=value)))
            for value in body["values"]]

    def test_sweep_point_offsets_need_only_match_the_swept_count(
            self, tmp_path):
        """Each point is one request: offsets sized for the swept driver
        count are valid even though the default base count is 4."""
        body = {"knob": "n_drivers", "values": [2], "inductance": 1e-9,
                "rise_time": 0.5e-9, "input_offsets": [0.0, 1e-10]}

        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/sweep", body)

        status, swept = asyncio.run(scenario())
        assert status == 200
        assert [p["outcome"] for p in swept["points"]] == ["miss"]

    def test_montecarlo_repeat_hit_is_bit_identical(self, tmp_path):
        body = {"n_drivers": 1, "inductance": 1e-9, "rise_time": 0.5e-9,
                "trials": 6, "seed": 3}

        async def scenario():
            async with service_on(tmp_path) as service:
                _, first = await post(service, "/montecarlo", body)
                simulate_ssn_cache_clear()
                registry = obs_metrics.enable_metrics()
                _, again = await post(service, "/montecarlo", body)
            return first, again, registry

        first, again, registry = asyncio.run(scenario())
        assert first["outcome"] == "miss" and again["outcome"] == "hit"
        assert SolverTelemetry.from_registry(registry).newton_solves == 0
        assert again["samples"] == first["samples"]
        assert again["mean"] == first["mean"]
        assert again["p95"] == first["p95"]


class TestLifecycle:
    def test_close_disables_the_registry_start_enabled(self, tmp_path):
        obs_metrics.disable_metrics()

        async def scenario():
            async with service_on(tmp_path):
                return obs_metrics.active_registry()

        assert asyncio.run(scenario()) is not None
        assert obs_metrics.active_registry() is None

    def test_close_keeps_the_callers_registry(self, tmp_path, registry):
        async def scenario():
            async with service_on(tmp_path):
                pass

        asyncio.run(scenario())
        assert obs_metrics.active_registry() is registry


class TestHttpSurface:
    async def _get(self, service, path):
        return await arequest("127.0.0.1", service.port, "GET", path)

    def test_health_metrics_and_errors(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                results = {}
                results["health"] = await self._get(service, "/healthz")
                _, _ = await post(service, "/simulate", PARAMS)
                results["metrics"] = await self._get(service, "/metrics")
                results["missing"] = await self._get(service, "/nope")
                results["wrong_method"] = await self._get(service, "/simulate")
                results["unknown_param"] = await post(
                    service, "/simulate", dict(PARAMS, bogus=1))
                results["no_drivers"] = await post(
                    service, "/simulate", {"inductance": 1e-9})
                results["bad_knob"] = await post(
                    service, "/sweep", {"knob": "vdd", "values": [1]})
                status, _ = await arequest(
                    "127.0.0.1", service.port, "POST", "/simulate",
                    payload=None)
                results["empty_body"] = (status, None)
            return results

        results = asyncio.run(scenario())
        status, health = results["health"]
        assert status == 200 and health["status"] == "ok"
        status, text = results["metrics"]
        assert status == 200
        assert "repro_service_requests_total" in text
        assert "repro_store_writes_total" in text
        assert results["missing"][0] == 404
        assert results["wrong_method"][0] == 405
        assert results["unknown_param"][0] == 400
        assert "bogus" in results["unknown_param"][1]["error"]
        assert results["no_drivers"][0] == 400
        assert results["bad_knob"][0] == 400
        # An empty POST body is "{}", which fails spec validation, not parsing.
        assert results["empty_body"][0] == 400

    def test_nan_literal_is_a_400_and_stores_nothing(self, tmp_path):
        """``json.loads`` accepts a bare ``NaN``; spec validation must
        refuse it before any simulation runs or any record is written."""
        body = json.dumps(dict(PARAMS, inductance=float("nan")))
        assert "NaN" in body

        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/simulate", json.loads(body))

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert "finite" in payload["error"]
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_nan_option_is_a_400_and_stores_nothing(self, tmp_path):
        """A NaN step-control tolerance would stall the adaptive engine
        forever; option validation must refuse it before any compute."""
        body = json.dumps(dict(PARAMS, options={"adaptive": True,
                                                "lte_rtol": float("nan")}))
        assert "NaN" in body

        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/simulate", json.loads(body))

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert "lte_rtol" in payload["error"]
        assert len(ResultStore(tmp_path / "store")) == 0

    @pytest.mark.parametrize("options, field", [
        ({"adaptive": "false"}, "adaptive"),
        ({"sparse": True}, "unknown transient options: sparse"),
    ], ids=["adaptive-string", "retired-sparse"])
    def test_mistyped_option_is_a_400_and_stores_nothing(
            self, tmp_path, options, field):
        """``"false"`` is truthy: accepting it would run (and key) a
        different simulation than the client asked for.  ``sparse`` names
        the retired sparse tier, now an unknown option."""
        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/simulate",
                                  dict(PARAMS, options=options))

        status, payload = asyncio.run(scenario())
        assert status == 400
        assert field in payload["error"]
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_malformed_json_is_a_400(self, tmp_path):
        async def scenario():
            async with service_on(tmp_path) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                body = b"{not json"
                writer.write(
                    b"POST /simulate HTTP/1.1\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: close\r\n\r\n%s" % (len(body), body))
                await writer.drain()
                raw = await reader.read()
                writer.close()
            return raw

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400")

    @pytest.mark.parametrize("request_bytes", [
        b"POST /simulate HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nContent-Length: 0x5\r\n\r\n",
        post_bytes("/sweep", b'{"knob":"n_drivers","values":[1e400]}'),
        post_bytes("/simulate", b'{"n_drivers": 1e400}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "trials": 1e400}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "seed": 1e400}'),
        post_bytes("/simulate", b"[" * 100_000),
        post_bytes("/simulate", b'{"n_drivers": 2.7}'),
        post_bytes("/simulate", b'{"n_drivers": true}'),
        post_bytes("/simulate", b'{"n_drivers": "3"}'),
        post_bytes("/simulate", b'{"n_drivers": 1, "inductance": true}'),
        post_bytes("/sweep", b'{"knob":"n_drivers","values":[2.7]}'),
        post_bytes("/sweep", b'{"knob":"inductance","values":["1e-9"]}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "trials": 2.5}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "trials": "8"}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "seed": true}'),
        post_bytes("/montecarlo", b'{"n_drivers": 1, "seed": -1}'),
    ], ids=["length-not-a-number", "length-negative", "length-plus-sign",
            "length-underscore", "length-hex", "sweep-value-overflow",
            "spec-field-overflow", "trials-overflow", "seed-overflow",
            "nesting-too-deep", "count-fraction", "count-true",
            "count-string", "inductance-true", "sweep-count-fraction",
            "sweep-value-string", "trials-fraction", "trials-string",
            "seed-true", "seed-negative"])
    def test_malformed_request_is_a_400_and_stores_nothing(
            self, tmp_path, registry, request_bytes):
        async def scenario():
            async with service_on(tmp_path) as service:
                return await raw_exchange(service, request_bytes)

        raw = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400"), raw[:200]
        assert registry.get("repro_service_errors_total",
                            {"endpoint": "/simulate"}) is None
        assert len(ResultStore(tmp_path / "store")) == 0


    def test_single_trial_montecarlo_is_a_400_before_any_compute(
            self, tmp_path, registry):
        """A Monte Carlo needs two draws for a spread: one trial is the
        client's error, not a failed computation."""
        async def scenario():
            async with service_on(tmp_path) as service:
                raw = await raw_exchange(service, post_bytes(
                    "/montecarlo", b'{"n_drivers": 1, "trials": 1}'))
                return raw, obs_events.snapshot_events()

        raw, events = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400"), raw[:200]
        assert b"'trials' must be at least 2" in raw
        assert registry.get("repro_service_computes_total") is None
        assert [e for e in events
                if e["name"] == "service_compute_failed"] == []
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_miss_reaches_metrics_through_its_telemetry(self, tmp_path):
        """The miss's engine run is projected into /metrics from the same
        record the response carries."""
        async def scenario():
            async with service_on(tmp_path) as service:
                _, payload = await post(service, "/simulate",
                                        dict(PARAMS, include_waveforms=False))
                _, text = await self._get(service, "/metrics")
            return payload, text

        payload, text = asyncio.run(scenario())
        assert payload["outcome"] == "miss"
        solves = payload["telemetry"]["newton_solves"]
        assert solves > 0
        lines = text.splitlines()
        assert f"repro_newton_solves_total {float(solves)!r}" in lines
        assert "repro_newton_iterations_per_solve_count 1" in lines
        assert 'repro_phase_seconds_count{phase="total"} 1' in lines

    @pytest.mark.parametrize("body,error", [
        (b'{"n_drivers": 1, "driver_strength": 0}',
         b"driver_strength must be positive"),
        (b'{"n_drivers": 1, "driver_strength": -1}',
         b"driver_strength must be positive"),
        (b'{"n_drivers": 1, "driver_strength": false}',
         b"expected a number, not False"),
    ], ids=["strength-zero", "strength-negative", "strength-false"])
    def test_non_positive_driver_strength_is_a_400_before_any_compute(
            self, tmp_path, registry, body, error):
        async def scenario():
            async with service_on(tmp_path) as service:
                raw = await raw_exchange(service, post_bytes("/simulate", body))
                return raw, obs_events.snapshot_events()

        raw, events = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400"), raw[:200]
        assert error in raw
        assert registry.get("repro_service_computes_total") is None
        assert [e for e in events
                if e["name"] == "service_compute_failed"] == []
        assert len(ResultStore(tmp_path / "store")) == 0

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []],
                             ids=["str-false", "str-true", "zero", "one",
                                  "null", "list"])
    @pytest.mark.parametrize("path,field", [
        ("/simulate", "include_waveforms"), ("/simulate", "surrogate"),
        ("/simulate", "collapse"), ("/sweep", "collapse"),
    ])
    def test_switches_take_json_booleans_only(
            self, tmp_path, registry, path, field, value):
        """``bool("false")`` is true: a switch that is not a JSON boolean is
        a 400, never a silent coercion.  A null ``collapse`` is an unset
        spec field, like every other null spec field."""
        body = dict(PARAMS, **{field: value})
        if path == "/sweep":
            body.update(knob="n_drivers", values=[1])

        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, path, body)

        status, payload = asyncio.run(scenario())
        if field == "collapse" and value is None:
            assert status == 200
            return
        assert status == 400
        assert field in payload["error"]
        assert registry.get("repro_service_computes_total") is None
        assert len(ResultStore(tmp_path / "store")) == 0

    def test_null_sweep_value_is_a_400(self, tmp_path):
        """A null spec field means "unset"; a null sweep value must not
        silently fall back to the base spec's value."""
        async def scenario():
            async with service_on(tmp_path) as service:
                return await post(service, "/sweep", dict(
                    PARAMS, knob="capacitance", values=[1e-12, None]))

        status, payload = asyncio.run(scenario())
        assert status == 400 and "capacitance" in payload["error"]
        assert len(ResultStore(tmp_path / "store")) == 0

    @pytest.mark.parametrize("setting", [
        {"chunk_size": 0}, {"max_retries": -1}, {"deadline": 0.0},
    ], ids=["chunk-size", "max-retries", "deadline"])
    def test_bad_runner_setting_fails_at_construction(self, tmp_path, setting):
        """Checked once at start-up, not as a 500 on every miss."""
        with pytest.raises(ValueError):
            SsnService(store_root=tmp_path / "store", port=0, **setting)
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("request_bytes", [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"POST /simulate HTTP/1.1\r\nX-Long: " + b"a" * 70_000
        + b"\r\nContent-Length: 2\r\n\r\n{}",
    ], ids=["request-line", "header-line"])
    def test_over_long_line_is_a_400_not_an_error(
            self, tmp_path, registry, request_bytes):
        """A line over the reader's 64 KiB limit is the client's fault: a
        400, with no error metric, no error event and nothing stored."""
        async def scenario():
            async with service_on(tmp_path) as service:
                raw = await raw_exchange(service, request_bytes)
                return raw, obs_events.snapshot_events()

        raw, events = asyncio.run(scenario())
        assert raw.startswith(b"HTTP/1.1 400"), raw[:200]
        assert b"too long" in raw
        assert registry.get("repro_service_errors_total",
                            {"endpoint": "unparsed"}) is None
        assert [e for e in events if e["name"] == "service_error"] == []
        assert len(ResultStore(tmp_path / "store")) == 0

    @pytest.mark.parametrize("partial", [
        b"POST /simulate HTTP/1.1\r\nContent-Le",
        post_bytes("/simulate", json.dumps(PARAMS).encode())[:-5],
    ], ids=["mid-headers", "mid-body"])
    def test_stalled_request_is_closed_at_the_read_deadline(
            self, tmp_path, registry, monkeypatch, partial):
        """A client that stops mid-request loses its connection at
        ``READ_TIMEOUT_S`` (unanswered), and the server keeps serving."""
        monkeypatch.setattr(server_module, "READ_TIMEOUT_S", 0.2)

        async def scenario():
            async with service_on(tmp_path) as service:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port)
                writer.write(partial)
                await writer.drain()
                # Far above the deadline: only a hang trips this timeout.
                raw = await asyncio.wait_for(reader.read(), timeout=10.0)
                writer.close()
                health = await arequest("127.0.0.1", service.port, "GET",
                                        "/healthz")
                return raw, health, obs_events.snapshot_events()

        raw, (status, health), events = asyncio.run(scenario())
        assert raw == b""
        assert status == 200 and health["status"] == "ok"
        assert registry.get("repro_service_errors_total",
                            {"endpoint": "unparsed"}) is None
        assert [e for e in events if e["name"] == "service_error"] == []
        assert len(ResultStore(tmp_path / "store")) == 0


class TestSurrogateFirst:
    """The serving tier's new first layer: fitted models answer in-region."""

    #: In-region for the box below; distinct from PARAMS so the two
    #: namespaces never collide in the store.
    IN_REGION = {"n_drivers": 4, "inductance": 3e-9, "rise_time": 0.5e-9,
                 "tech": "tsmc018"}

    @pytest.fixture(scope="class")
    def model(self):
        from repro.surrogate import fit_surrogate

        return fit_surrogate(
            "tsmc018", n_drivers=(2, 6), inductance=(2e-9, 5e-9),
            rise_time=(0.4e-9, 0.7e-9))

    def warmed_store(self, tmp_path, model):
        from repro.service import surrogate_key

        store = ResultStore(tmp_path / "store")
        store.put_surrogate(
            surrogate_key(model.technology, model.topology,
                          model.operating_region), model)
        return store

    def test_in_region_is_answered_surrogate_then_refined(
            self, tmp_path, model, registry):
        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                status, first = await post(service, "/simulate", self.IN_REGION)
                # Background refinement publishes the golden record, after
                # which the same request is an exact store hit.
                await service.drain_background()
                status2, refined = await post(service, "/simulate", self.IN_REGION)
            return status, first, status2, refined

        status, first, status2, refined = asyncio.run(scenario())
        assert status == 200 and first["outcome"] == "surrogate"
        assert first["engine"] == "surrogate"
        assert first["surrogate"]["technology"] == "tsmc018"
        assert first["surrogate"]["operating_region"] == "first_order"
        assert first["telemetry"]["surrogate_hits"] == 1
        golden = simulate_ssn(spec_of(self.IN_REGION))
        bound = first["surrogate"]["error_bound_percent"] / 100.0
        assert abs(first["peak_voltage"] - golden.peak_voltage) <= (
            bound * golden.peak_voltage)
        assert status2 == 200 and refined["outcome"] == "hit"
        assert refined["peak_voltage"] == golden.peak_voltage
        assert refined["key"] == first["key"]

    def test_out_of_region_takes_the_full_path(self, tmp_path, model, registry):
        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                params = dict(self.IN_REGION, n_drivers=40)
                _, payload = await post(service, "/simulate", params)
            return payload

        payload = asyncio.run(scenario())
        assert payload["outcome"] == "miss"  # computed, not surrogate

    def test_explicit_options_take_the_full_path(self, tmp_path, model, registry):
        """A closed form has no solver to configure: non-default transient
        options are computed in full, even for an in-region spec."""
        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                params = dict(self.IN_REGION, options={"method": "be"})
                _, payload = await post(service, "/simulate", params)
            return payload

        payload = asyncio.run(scenario())
        assert payload["outcome"] == "miss"
        assert "surrogate_hits" not in payload["telemetry"]

    def test_per_request_and_per_server_opt_out(self, tmp_path, model, registry):
        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                _, per_request = await post(
                    service, "/simulate", dict(self.IN_REGION, surrogate=False))
            async with service_on(tmp_path, surrogate=False) as service:
                _, per_server = await post(service, "/simulate", self.IN_REGION)
            return per_request, per_server

        per_request, per_server = asyncio.run(scenario())
        assert per_request["outcome"] in ("miss", "hit")
        assert per_server["outcome"] in ("miss", "hit")

    def test_surrogate_metrics_are_exported(self, tmp_path, model, registry):
        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                await post(service, "/simulate", self.IN_REGION)
                return await arequest(
                    "127.0.0.1", service.port, "GET", "/metrics")

        status, text = asyncio.run(scenario())
        assert status == 200
        assert "repro_surrogate_hits_total" in text
        assert "repro_surrogate_warmed_total" in text

    def test_requests_compute_no_surrogate_key(self, tmp_path, model,
                                                 registry, monkeypatch):
        """The startup scan is the only warm-up: serving a request never
        hashes a surrogate identity key to probe the store."""
        from repro.service import keys as keys_module

        calls, original = [], keys_module.surrogate_key

        def spy(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for owner in (server_module, keys_module):
            monkeypatch.setattr(owner, "surrogate_key", spy, raising=False)

        async def scenario():
            self.warmed_store(tmp_path, model)
            async with service_on(tmp_path) as service:
                _, hit = await post(service, "/simulate", self.IN_REGION)
                _, miss = await post(service, "/simulate", PARAMS)
                await service.drain_background()
            return hit, miss

        hit, miss = asyncio.run(scenario())
        assert hit["outcome"] == "surrogate" and miss["outcome"] == "miss"
        assert calls == []

    def test_warm_up_reads_heads_only(self, tmp_path, model, registry,
                                      monkeypatch):
        """Warm-up registers current surrogate records, skips simulations
        without decoding their waveforms, and leaves anything else in
        place: no quarantine, no store counters, no exception."""
        from repro.service import surrogate_key, surrogate_record

        store = self.warmed_store(tmp_path, model)
        slot = surrogate_key(model.technology, model.topology,
                             model.operating_region)
        stale = "ab" * 32
        store.put(stale, dict(surrogate_record(stale, model), schema=1))
        spec = spec_of(PARAMS)
        store.put_simulation(server_module.result_key(spec), simulate_ssn(spec))
        corrupt = store.path_for("cd" * 32)
        corrupt.parent.mkdir(parents=True, exist_ok=True)
        corrupt.write_text("{torn")
        spy = JsonSpy()
        monkeypatch.setattr(store_module, "json", spy)

        service = SsnService(store_root=tmp_path / "store", port=0)
        service._warm_from_store()

        assert [m.key for m in service.registry.models()] == [model.key]
        assert surrogate_key(*model.key) == slot
        assert corrupt.exists() and store.quarantined() == []
        assert registry.get("repro_store_hits_total") is None
        assert registry.get("repro_store_misses_total") is None
        assert all(b'"waveforms"' not in text for text in spy.texts)


#: Content-Length values: valid, near-valid and junk, plus a digit string
#: past int()'s conversion limit.
_LENGTHS = st.one_of(
    st.integers(min_value=-3, max_value=64).map(str),
    st.sampled_from(["+5", "1_0", "0x5", " 7", "٥", "\u00b2", "00003",
                     "9" * 5000]),
    st.text(max_size=12),
)


def _request_bytes(length: str, body: bytes) -> bytes:
    return (b"POST /simulate HTTP/1.1\r\nContent-Length: "
            + length.encode("utf-8") + b"\r\n\r\n" + body)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(
    st.binary(max_size=200),
    st.builds(_request_bytes, _LENGTHS, st.binary(max_size=80)),
))
def test_read_request_returns_a_request_or_a_client_error(raw):
    """Any byte stream ending in EOF parses to (method, path, body) or is
    refused as the client's fault (a 400, or a body cut short): never
    another exception."""
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await SsnService._read_request(reader)

    try:
        result = asyncio.run(read())
    except (server_module.BadRequest, asyncio.IncompleteReadError):
        return
    assert isinstance(result, tuple) and len(result) == 3
    method, path, body = result
    assert isinstance(method, str) and isinstance(path, str)
    assert isinstance(body, bytes)


#: Arbitrary JSON values: sign and type edges, any float, short strings.
_JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 0.0, "1e-9", "nan", "false", []]),
    st.integers(min_value=-3, max_value=80), st.floats(), st.text(max_size=6),
    st.lists(st.floats(min_value=0.0, max_value=1e-9), max_size=4),
)
_POSITIVE = st.floats(min_value=1e-13, max_value=1e-6)

#: A plausible request with up to three fields overwritten by arbitrary
#: JSON values: any JSON object over the spec fields, weighted towards
#: ones that almost validate.
_SPEC_REQUESTS = st.builds(
    lambda base, junk: {**base, **junk},
    st.fixed_dictionaries({"n_drivers": st.integers(1, 80)}, optional={
        "tech": st.sampled_from(["tsmc018", "tsmc025", "tsmc035"]),
        "inductance": _POSITIVE, "rise_time": _POSITIVE,
        "capacitance": _POSITIVE, "load_capacitance": _POSITIVE,
        "resistance": st.floats(min_value=0.0, max_value=10.0),
        "driver_strength": st.floats(min_value=0.1, max_value=8.0),
        "collapse": st.booleans(),
        "input_offsets": st.lists(st.floats(min_value=0.0, max_value=1e-9),
                                  max_size=4),
    }),
    st.dictionaries(
        st.sampled_from(sorted(server_module._SPEC_FIELDS)
                        + ["tech", "input_offsets"]),
        _JSON_VALUES, max_size=3),
)


def _is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@settings(max_examples=500, deadline=None)
@given(params=_SPEC_REQUESTS)
@example(params={"n_drivers": 1, "driver_strength": False})
@example(params={"n_drivers": 2.7})
@example(params={"n_drivers": True})
@example(params={"n_drivers": "3"})
@example(params={"n_drivers": 1, "inductance": True})
@example(params={"n_drivers": 3, "input_offsets": "123"})
def test_request_spec_is_refused_or_builds(params):
    """Any JSON object over the spec fields is a 400 or a spec whose
    netlist builds: validation never passes what the engine would refuse.
    A spec that builds holds every numeric field exactly as sent, and only
    JSON numbers get there: no truncated count, no string or boolean
    read as a number.  (A /sweep point is such an object with the knob's
    value set.)"""
    try:
        spec = server_module._spec_from(params)
    except server_module.BadRequest:
        return
    for name, value in params.items():
        if name in server_module._SPEC_FIELDS and name != "collapse" \
                and value is not None:
            assert _is_json_number(value) and getattr(spec, name) == value
    if params.get("input_offsets") is not None:
        assert all(map(_is_json_number, params["input_offsets"]))
        assert list(spec.input_offsets) == params["input_offsets"]
    if (spec.collapse and spec.input_offsets is None) or spec.n_drivers <= 64:
        assert build_driver_bank(spec).elements
