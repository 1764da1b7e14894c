"""The shadow-audit accuracy monitor and the operational health surface.

Unit-level: deterministic audit sampling, track/resolve/discard
bookkeeping, breach detection against the served tolerance, registry
demotion (idempotent, reinstated by re-registration).  Service-level: the
acceptance demo — a surrogate whose device model drifted after fit time
serves answers outside its tolerance, the shadow audit (piggybacking on
the background golden refinement) catches it, demotes the region, and
subsequent queries fall back to golden-parity exact answers, all visible
in ``/statusz`` and replayable from the durable event journal after the
process is gone.  Plus ``/healthz`` warming semantics and the flight
recorder's crash-path bundles.
"""

import asyncio
import contextlib
import dataclasses
import json
import threading

import pytest

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import simulate_ssn, simulate_ssn_cache_clear
from repro.observability import events as obs_events
from repro.observability import health as obs_health
from repro.observability import metrics as obs_metrics
from repro.observability import trace
from repro.process import get_technology
from repro.service import ResultStore, SsnService, arequest, surrogate_key
from repro.surrogate import SurrogateAuditor, SurrogateRegistry, fit_surrogate
from repro.surrogate.audit import _key_fraction
from repro.surrogate.registry import DEMOTIONS_METRIC
from repro.testing import faults
from repro.testing.faults import FaultRule, InjectedCrash


@pytest.fixture(autouse=True)
def registry():
    """Fresh per-test process state: metrics, memo, faults, events."""
    simulate_ssn_cache_clear()
    faults.clear_faults()
    trace.disable_tracing()
    obs_events.disable_events()
    registry = obs_metrics.enable_metrics()
    yield registry
    simulate_ssn_cache_clear()
    faults.clear_faults()
    trace.disable_tracing()
    obs_events.disable_events()
    obs_metrics.disable_metrics()


@pytest.fixture(scope="module")
def model():
    """One fitted surrogate shared by the module (fitting is the slow part)."""
    return fit_surrogate(
        "tsmc018", n_drivers=(2, 6), inductance=(2e-9, 5e-9),
        rise_time=(0.4e-9, 0.7e-9))


def in_region_spec(n_drivers=4):
    return DriverBankSpec(
        technology=get_technology("tsmc018"), n_drivers=n_drivers,
        inductance=3e-9, rise_time=0.5e-9)


@contextlib.asynccontextmanager
async def service_on(tmp_path, **kwargs):
    service = SsnService(store_root=tmp_path / "store", port=0, **kwargs)
    await service.start()
    try:
        yield service
    finally:
        await service.close()


class TestDeterministicSampling:
    def test_key_fraction_is_the_hex_prefix(self):
        assert _key_fraction("00000000" + "ab" * 28) == 0.0
        assert _key_fraction("80000000") == 0.5
        assert 0.0 <= _key_fraction("not hex at all") < 1.0

    def test_same_key_same_decision(self, model):
        auditor = SurrogateAuditor(SurrogateRegistry(), fraction=0.5)
        keys = [f"{i:08x}{'0' * 56}" for i in range(0, 2 ** 32, 2 ** 28)]
        first = [auditor.should_sample(k) for k in keys]
        assert first == [auditor.should_sample(k) for k in keys]
        assert any(first) and not all(first)  # the fraction really splits

    def test_fraction_bounds(self):
        registry = SurrogateRegistry()
        assert not SurrogateAuditor(registry, fraction=0.0).should_sample("00")
        assert SurrogateAuditor(registry, fraction=1.0).should_sample("ffffffff")
        with pytest.raises(ValueError, match="fraction"):
            SurrogateAuditor(registry, fraction=1.5)
        with pytest.raises(ValueError, match="window"):
            SurrogateAuditor(registry, window=0)


class TestAuditorResolution:
    def _auditor(self, model, fraction=1.0):
        registry = SurrogateRegistry()
        registry.register(model)
        return SurrogateAuditor(registry, fraction=fraction)

    def test_track_resolve_within_tolerance(self, model, registry):
        auditor = self._auditor(model)
        reference = 0.5
        estimate = reference * (1.0 + model.tolerance_percent / 300.0)
        assert auditor.track("aa" * 32, model, estimate)
        assert not auditor.track("aa" * 32, model, estimate)  # already pending
        assert auditor.pending_count() == 1
        obs = auditor.resolve("aa" * 32, reference)
        assert obs is not None and not obs.breached and not obs.demoted
        assert obs.error_percent == pytest.approx(
            model.tolerance_percent / 3.0)
        assert auditor.pending_count() == 0
        assert auditor.registry.demoted() == {}
        (summary,) = auditor.summaries().values()
        assert summary.n_points == 1
        labels = {"technology": model.technology, "topology": model.topology,
                  "operating_region": model.operating_region}
        assert registry.get(
            "repro_surrogate_audit_samples_total", labels).value == 1

    def test_breach_demotes_once(self, model, registry):
        auditor = self._auditor(model)
        reference = 0.5
        bad = reference * (1.0 + 2.0 * model.tolerance_percent / 100.0)
        auditor.track("bb" * 32, model, bad)
        obs = auditor.resolve("bb" * 32, reference)
        assert obs.breached and obs.demoted
        assert registry.get(DEMOTIONS_METRIC).value == 1
        demoted = auditor.registry.demoted()
        assert model.key in demoted and "tolerance" in demoted[model.key]
        # A second breach of the same region does not re-demote.
        auditor.track("cc" * 32, model, bad)
        second = auditor.resolve("cc" * 32, reference)
        assert second.breached and not second.demoted
        assert registry.get(DEMOTIONS_METRIC).value == 1
        payload = auditor.as_payload()
        region = "/".join(model.key)
        assert payload["regions"][region]["demoted"] is True
        assert payload["regions"][region]["samples"] == 2
        assert payload["demoted"][0]["reason"] == demoted[model.key]

    def test_untracked_discarded_and_zero_reference(self, model, registry):
        auditor = self._auditor(model)
        assert auditor.resolve("dd" * 32, 0.5) is None  # never tracked
        auditor.track("ee" * 32, model, 0.5)
        auditor.discard("ee" * 32)
        assert auditor.resolve("ee" * 32, 0.5) is None
        auditor.track("ff" * 32, model, 0.5)
        assert auditor.resolve("ff" * 32, 0.0) is None  # undefined % error
        assert auditor.pending_count() == 0
        assert auditor.summaries() == {}


class TestRegistryDemotion:
    def test_demoted_slot_refuses_and_refit_reinstates(self, model, registry):
        reg = SurrogateRegistry()
        reg.register(model)
        spec = in_region_spec()
        hit, _ = reg.lookup(spec)
        assert hit is model
        assert reg.demote(model.key, "audit evidence")
        benched, reason = reg.lookup(spec)
        assert benched is None and reason.startswith("demoted: audit evidence")
        assert not reg.demote(model.key, "again")  # idempotent
        reg.register(model)  # a refit reinstates the slot
        assert reg.demoted() == {}
        again, _ = reg.lookup(spec)
        assert again is model


class TestServiceHealth:
    def test_healthz_warming_until_store_scan_completes(self, tmp_path):
        async def scenario():
            service = SsnService(store_root=tmp_path / "store", port=0)
            gate = threading.Event()
            service._warm_from_store = lambda: gate.wait(10)
            task = asyncio.create_task(service.start())
            try:
                while service.port is None:
                    await asyncio.sleep(0.005)
                status, warming = await arequest(
                    "127.0.0.1", service.port, "GET", "/healthz")
                gate.set()
                await task
                status2, ready = await arequest(
                    "127.0.0.1", service.port, "GET", "/healthz")
            finally:
                gate.set()
                await service.close()
            return status, warming, status2, ready

        status, warming, status2, ready = asyncio.run(scenario())
        assert status == 200 and warming["status"] == "warming"
        assert status2 == 200 and ready["status"] == "ok"

    def test_statusz_schema_and_journal_tail(self, tmp_path):
        params = {"n_drivers": 2, "inductance": 1e-9, "rise_time": 0.5e-9}

        async def scenario():
            async with service_on(tmp_path) as service:
                await arequest("127.0.0.1", service.port, "POST",
                               "/simulate", params)
                await arequest("127.0.0.1", service.port, "POST",
                               "/simulate", params)
                return await arequest(
                    "127.0.0.1", service.port, "GET", "/statusz")

        status, payload = asyncio.run(scenario())
        assert status == 200
        assert payload["schema"] == obs_health.STATUS_SCHEMA_VERSION
        assert payload["status"] == "ok" and payload["ready"] is True
        assert payload["store"]["records"] == 1
        totals = payload["requests"]["totals"]["simulate"]
        assert totals == {"miss": 1.0, "hit": 1.0}
        # Latency histograms label by request path; outcome counters by
        # the short endpoint name.
        assert "/simulate" in payload["latency"]
        assert set(payload["latency"]["/simulate"]) <= {"p50", "p90", "p99"}
        assert payload["slo"]["requests"] >= 2
        assert payload["slo"]["error_budget"]["state"] == "ok"
        assert payload["surrogate"]["enabled"] is True
        assert payload["surrogate"]["audit"]["pending"] == 0
        events = payload["events"]
        assert events["recorded"] >= 3  # ready + two requests
        assert events["path"].endswith("events.jsonl")
        assert any(e["name"] == "service_request" for e in events["tail"])


class TestFlightRecorder:
    def test_bundle_contents_and_atomicity(self, tmp_path, registry):
        obs_events.enable_events()
        obs_events.emit("before_incident", detail=1)
        obs_metrics.inc("repro_service_computes_total")
        path = obs_health.flight_record(tmp_path / "flight", "test_reason",
                                        extra={"key": "abc"})
        bundle = json.loads(path.read_text())
        assert bundle["reason"] == "test_reason"
        assert bundle["extra"] == {"key": "abc"}
        assert any(e["name"] == "before_incident" for e in bundle["events"])
        assert bundle["metrics"] is not None
        # The journal records that a bundle was written.
        names = [e["name"] for e in obs_events.snapshot_events()]
        assert "flight_recorded" in names

    def test_crash_write_probe_fires(self, tmp_path):
        faults.install_faults([FaultRule(kind="crash-write", phase="events")],
                              mirror_env=False)
        with pytest.raises(InjectedCrash):
            obs_health.flight_record(tmp_path / "flight", "torn")
        faults.clear_faults()
        # atomic_write cleaned up: no bundle, no temp leftovers.
        flight_dir = tmp_path / "flight"
        assert [p for p in flight_dir.iterdir()] == []

    def test_maybe_is_noop_without_directory(self, monkeypatch):
        monkeypatch.delenv(obs_health.FLIGHT_ENV, raising=False)
        assert obs_health.maybe_flight_record(None, "x") is None

    def test_maybe_env_fallback_and_swallowed_failure(
            self, tmp_path, monkeypatch, registry):
        monkeypatch.setenv(obs_health.FLIGHT_ENV, str(tmp_path / "env_flight"))
        path = obs_health.maybe_flight_record(None, "via_env")
        assert path is not None and path.parent.name == "env_flight"
        # A failing write is swallowed (counted), never propagated: the
        # recorder runs while a real error is already unwinding.
        faults.install_faults([FaultRule(kind="crash-write", phase="events")],
                              mirror_env=False)
        assert obs_health.maybe_flight_record(None, "crashing") is None
        faults.clear_faults()
        assert registry.get("repro_flight_record_errors_total").value == 1

    def test_service_compute_crash_dumps_a_bundle(self, tmp_path, registry):
        params = {"n_drivers": 2, "inductance": 1e-9, "rise_time": 0.5e-9}

        async def scenario():
            async with service_on(
                    tmp_path, flight_dir=tmp_path / "flight") as service:
                def boom(key, spec, options):
                    raise RuntimeError("solver exploded")
                service._compute_simulation_sync = boom
                return await arequest("127.0.0.1", service.port, "POST",
                                      "/simulate", params)

        status, payload = asyncio.run(scenario())
        assert status == 500 and "solver exploded" in payload["error"]
        (bundle_path,) = sorted((tmp_path / "flight").glob("flight-*.json"))
        bundle = json.loads(bundle_path.read_text())
        assert bundle["reason"] == "service_compute_failed"
        assert "solver exploded" in bundle["extra"]["error"]
        names = [e["name"] for e in bundle["events"]]
        assert "service_compute_failed" in names


class TestAuditEndToEnd:
    """Acceptance: injected device drift -> audit -> demotion -> golden parity."""

    IN_REGION = {"n_drivers": 4, "inductance": 3e-9, "rise_time": 0.5e-9,
                 "tech": "tsmc018"}

    def _drifted(self, model):
        """The fitted model with post-fit device drift injected.

        Scaling the fitted transconductance models silicon that drifted
        after characterization: the card's name and vdd still match, so
        the validity contract (which cannot see device internals) keeps
        accepting queries while served answers are now far outside the
        recorded tolerance.
        """
        drifted_asdm = dataclasses.replace(model.asdm, k=model.asdm.k * 1.5)
        return dataclasses.replace(model, asdm=drifted_asdm)

    def test_drift_is_audited_demoted_then_golden(self, tmp_path, model,
                                                  registry):
        drifted = self._drifted(model)
        spec = in_region_spec()
        golden = simulate_ssn(spec)
        drift_percent = abs(
            drifted.simulation(spec).peak_voltage - golden.peak_voltage
        ) / golden.peak_voltage * 100.0
        assert drift_percent > model.tolerance_percent  # the injected fault

        store = ResultStore(tmp_path / "store")
        store.put_surrogate(
            surrogate_key(drifted.technology, drifted.topology,
                          drifted.operating_region), drifted)

        async def scenario():
            async with service_on(tmp_path, audit_fraction=1.0) as service:
                _, first = await arequest(
                    "127.0.0.1", service.port, "POST", "/simulate",
                    self.IN_REGION)
                # The background refinement is both the golden record and
                # the audit's reference; once it lands the breach is known.
                await service.drain_background()
                _, again = await arequest(
                    "127.0.0.1", service.port, "POST", "/simulate",
                    self.IN_REGION)
                other_params = dict(self.IN_REGION, n_drivers=5)
                _, other = await arequest(
                    "127.0.0.1", service.port, "POST", "/simulate",
                    other_params)
                _, statusz = await arequest(
                    "127.0.0.1", service.port, "GET", "/statusz")
                demoted_slots = service.registry.demoted()
            return first, again, other, statusz, demoted_slots

        first, again, other, statusz, demoted_slots = asyncio.run(scenario())

        # 1. The drifted model answered, wrongly, within its claimed bound.
        assert first["outcome"] == "surrogate"
        assert first["peak_voltage"] == pytest.approx(
            drifted.simulation(spec).peak_voltage)

        # 2. The audit caught the breach and demoted the region exactly once.
        assert registry.get(DEMOTIONS_METRIC).value == 1
        assert drifted.key in demoted_slots
        labels = {"technology": drifted.technology,
                  "topology": drifted.topology,
                  "operating_region": drifted.operating_region}
        assert registry.get(
            "repro_surrogate_audit_breaches_total", labels).value == 1

        # 3. Subsequent queries are golden parity: the audited key from the
        # refined record, the fresh in-region key via the exact path (the
        # demoted model refuses it).
        assert again["outcome"] == "hit"
        assert abs(again["peak_voltage"] - golden.peak_voltage) <= 1e-9
        assert other["outcome"] == "miss"
        other_golden = simulate_ssn(in_region_spec(n_drivers=5))
        assert abs(other["peak_voltage"] - other_golden.peak_voltage) <= 1e-9

        # 4. /statusz reports the region degraded, with the audit evidence.
        audit = statusz["surrogate"]["audit"]
        region = "/".join(drifted.key)
        assert audit["regions"][region]["demoted"] is True
        assert audit["regions"][region]["max_abs_percent"] > \
            model.tolerance_percent
        (slot,) = audit["demoted"]
        assert slot["technology"] == "tsmc018"
        assert "tolerance" in slot["reason"]

        # 5. The durable journal replays the full sequence after the
        # process is gone (the service closed and released the journal).
        assert obs_events.active_journal() is None
        events = obs_events.read_journal(tmp_path / "store" / "events.jsonl")
        names = [e["name"] for e in events]
        for needed in ("service_ready", "service_request",
                       "surrogate_audited", "surrogate_demoted",
                       "surrogate_refused"):
            assert needed in names, f"journal is missing {needed!r}"
        assert names.index("surrogate_demoted") < \
            names.index("surrogate_audited")  # demotion happens in resolve()
        served = [e for e in events if e["name"] == "service_request"]
        outcomes = [e["attributes"]["outcome"] for e in served]
        assert "surrogate" in outcomes and "hit" in outcomes \
            and "miss" in outcomes
        audited = [e for e in events if e["name"] == "surrogate_audited"]
        assert audited[0]["attributes"]["breached"] is True
        assert audited[0]["attributes"]["error_percent"] == pytest.approx(
            drift_percent, rel=1e-6)

    def test_within_tolerance_drift_is_observed_not_demoted(
            self, tmp_path, model, registry):
        """The healthy path: audits resolve, summaries fill, no demotion."""
        store = ResultStore(tmp_path / "store")
        store.put_surrogate(
            surrogate_key(model.technology, model.topology,
                          model.operating_region), model)

        async def scenario():
            async with service_on(tmp_path, audit_fraction=1.0) as service:
                await arequest("127.0.0.1", service.port, "POST",
                               "/simulate", self.IN_REGION)
                await service.drain_background()
                _, statusz = await arequest(
                    "127.0.0.1", service.port, "GET", "/statusz")
                return statusz, service.registry.demoted()

        statusz, demoted = asyncio.run(scenario())
        assert demoted == {}
        assert registry.get(DEMOTIONS_METRIC) is None
        region = "/".join(model.key)
        stats = statusz["surrogate"]["audit"]["regions"][region]
        assert stats["samples"] == 1 and stats["demoted"] is False
        assert stats["max_abs_percent"] <= model.tolerance_percent
