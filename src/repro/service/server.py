"""Async HTTP front end serving SSN results from the persistent store.

The paper's economics — fit once, answer repeat queries cheaply — only
materialize at traffic scale if repeat queries never re-enter the Newton
loop.  This server puts four layers between a request and the solver:

1. **Surrogate-first answering** — a ``/simulate`` request accepted by a
   fitted surrogate model (:mod:`repro.surrogate`; warmed on demand from
   the store's ``surrogate`` records) is answered in closed form
   (outcome ``"surrogate"``), with an optional background full-sim
   refinement publishing the golden record for later exact hits.
2. **In-flight dedup** — identical concurrent requests (equal
   :func:`repro.service.keys.result_key`) collapse onto one computation;
   followers await the leader's result (outcome ``"dedup"``).
3. **Persistent store** — a key already computed, by any earlier process,
   is answered straight from the validated record (outcome ``"hit"``)
   with zero solver work: the response splices the record's verified
   waveform bytes in as stored, so a hit never decodes or re-renders
   them.
4. **Background dispatch** — a genuine miss runs on a worker thread
   through the fault-tolerant :class:`~repro.analysis.campaign.CampaignRunner`
   (retry ladder, engine degradation), is atomically published to the
   store, and then answered (outcome ``"miss"``).

Zero new dependencies: the HTTP/1.1 layer is hand-rolled on
``asyncio.start_server`` (no ``http.server``), responses are
``Connection: close``, and the endpoints speak plain JSON:

* ``POST /simulate``   — one golden simulation (optionally with waveforms).
* ``POST /sweep``      — a knob sweep; each point goes through the same
  key/dedup/store path, so overlapping sweeps share work.
* ``POST /montecarlo`` — a golden transient Monte Carlo distribution.
* ``GET /healthz``     — liveness + readiness (``"warming"`` until the
  surrogate store warm-up completes) + store location.
* ``GET /statusz``     — the detailed operational view
  (:func:`repro.observability.health.statusz_snapshot`): latency
  quantiles, request/outcome totals, rolling SLO rates and error budget,
  surrogate audit state, event-journal tail.
* ``GET /metrics``     — Prometheus text of the process registry
  (request/outcome counters, store activity, solver histograms).

Prometheus metrics and trace spans (``service_request`` down to the
solver's ``newton_solve``) thread through every path via
:mod:`repro.observability`; request outcomes, compute crashes and
surrogate audit decisions additionally land in the durable event journal
(``events.jsonl`` next to the store by default), and a shadow audit
(:mod:`repro.surrogate.audit`) re-checks a sampled fraction of
surrogate-served answers against their background golden refinements,
demoting a region whose observed error breaches its served tolerance.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import time

from ..analysis.campaign import CampaignConfig, CampaignRunner
from ..analysis.driver_bank import DriverBankSpec
from ..analysis.montecarlo import DeviceSpread
from ..analysis.simulate import canonical_options, simulate_ssn_cached
from ..analysis.sweeps import KNOBS, whole_number
from ..observability import events as obs_events
from ..observability import health as obs_health
from ..observability import metrics as obs_metrics
from ..observability import trace
from ..observability.export import to_prometheus_text
from ..process import get_technology
from ..spice.transient import TransientOptions
from ..surrogate import SurrogateAuditor, SurrogateRegistry
from .keys import canonical_request, result_key
from .store import (
    RECORD_SCHEMA_VERSION,
    ResultStore,
    StoredRecord,
    WAVEFORM_FIELDS,
    _waveform_payload,
    montecarlo_record,
    read_head,
    simulation_record,
    surrogate_from_record,
)

#: Upper bounds on one request's header block and body, in bytes.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Seconds a client has to deliver its whole request (line, headers and
#: body); a connection still mid-request after that is closed unanswered.
READ_TIMEOUT_S = 30.0

def _json_bool(value) -> bool:
    """A JSON boolean as is; ``bool()`` would read the string "false" as true."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, not {value!r}")
    return value


def _json_number(value) -> float:
    """A JSON number as a float; ``float()`` would take ``"3"`` and ``true``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, not {value!r}")
    return float(value)


#: Spec fields a request may set, with their coercions.
_SPEC_FIELDS = {
    "n_drivers": whole_number,
    **dict.fromkeys(("inductance", "rise_time", "capacitance", "resistance",
                     "load_capacitance", "driver_strength"), _json_number),
    "collapse": _json_bool,
}

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 500: "Internal Server Error",
}


class BadRequest(ValueError):
    """A malformed or invalid request body (answered with HTTP 400)."""


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Knobs of one serving process.

    Attributes:
        host: bind address.
        port: bind port; 0 picks an ephemeral port (reported after bind).
        store_root: result-database directory.
        max_retries: per-chunk retry budget of the dispatch campaigns.
        deadline: per-task wall-clock budget in seconds (None = unlimited).
        chunk_size: campaign chunk size for multi-instance workloads
            (Monte Carlo trial fleets).
        max_workers: process-pool width for campaign bulk execution
            (None honors ``REPRO_MAX_WORKERS``, else serial).
        surrogate: serve in-region ``/simulate`` requests from fitted
            surrogate models (clients can also opt out per request with
            ``"surrogate": false``).
        surrogate_refine: on a surrogate answer, kick off a background
            full simulation that publishes the golden record, so the next
            identical request is an exact store hit.
        audit_fraction: fraction of surrogate-served answers shadow-audited
            against their golden refinement (0 disables; requires
            ``surrogate_refine``).
        events_path: durable event-journal file; the default ``"auto"``
            puts ``events.jsonl`` inside the store root, ``None`` disables
            journaling.  A journal already enabled process-wide is reused
            (and left alone on close).
        flight_dir: directory for flight-recorder bundles dumped when a
            dispatched computation crashes (default: ``$REPRO_FLIGHT_DIR``,
            else disabled).
    """

    host: str = "127.0.0.1"
    port: int = 8431
    store_root: str | os.PathLike = ".repro_store"
    max_retries: int = 2
    deadline: float | None = None
    chunk_size: int = 8
    max_workers: int | None = None
    surrogate: bool = True
    surrogate_refine: bool = True
    audit_fraction: float = 0.1
    events_path: str | os.PathLike | None = "auto"
    flight_dir: str | os.PathLike | None = None


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request or header line; a line over the reader's limit is a 400."""
    try:
        return await reader.readline()
    except ValueError as exc:  # readline's form of asyncio.LimitOverrunError
        raise BadRequest("request line or header line too long") from exc


def _parse_options(payload) -> TransientOptions | None:
    """Build :class:`TransientOptions` from a request's ``options`` object.

    An object naming only default values is no options at all
    (:func:`canonical_options`): the same key, and surrogate-eligible.
    """
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise BadRequest("'options' must be a JSON object")
    allowed = {f.name for f in dataclasses.fields(TransientOptions)}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise BadRequest(f"unknown transient options: {', '.join(unknown)}")
    try:
        return canonical_options(TransientOptions(**payload))
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid transient options: {exc}") from exc


def _spec_from(params: dict) -> DriverBankSpec:
    """Build the :class:`DriverBankSpec` a request's spec fields describe."""
    try:
        technology = get_technology(str(params.get("tech", "tsmc018")))
    except (KeyError, ValueError) as exc:
        raise BadRequest(f"unknown technology: {exc}") from exc
    if "n_drivers" not in params:
        raise BadRequest("'n_drivers' is required")
    # The CLI's defaults: 5 nH ground path, 0.5 ns edge.
    kwargs = {"inductance": 5e-9, "rise_time": 0.5e-9}
    for name, coerce in _SPEC_FIELDS.items():
        if name not in params or params[name] is None:
            continue
        try:
            kwargs[name] = coerce(params[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadRequest(f"invalid {name!r}: {exc}") from exc
    offsets = params.get("input_offsets")
    if offsets is not None:
        try:
            kwargs["input_offsets"] = tuple(_json_number(v) for v in offsets)
        except TypeError as exc:
            raise BadRequest(f"invalid 'input_offsets': {exc}") from exc
    try:
        return DriverBankSpec(technology=technology, **kwargs)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"invalid spec: {exc}") from exc


def _check_params(params, allowed: set[str], endpoint: str) -> dict:
    if not isinstance(params, dict):
        raise BadRequest(f"{endpoint} expects a JSON object body")
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise BadRequest(
            f"unknown {endpoint} parameters: {', '.join(unknown)}"
        )
    return params


def _flag(params: dict, name: str) -> bool:
    """A request's boolean switch (default true); only JSON booleans pass."""
    try:
        return _json_bool(params.get(name, True))
    except TypeError as exc:
        raise BadRequest(f"invalid {name!r}: {exc}") from exc


_SPEC_PARAMS = set(_SPEC_FIELDS) | {"tech", "input_offsets", "options"}


class SsnService:
    """The serving loop: store + dedup map + campaign dispatch."""

    def __init__(self, config: ServiceConfig | None = None, **kwargs):
        if config is not None and kwargs:
            raise TypeError("pass either a ServiceConfig or keyword knobs, not both")
        self.config = config if config is not None else ServiceConfig(**kwargs)
        cfg = self.config
        # Checked here, so a bad runner setting fails at start-up rather
        # than as a 500 on every miss.
        self._runner_config = CampaignConfig(
            chunk_size=cfg.chunk_size, max_retries=cfg.max_retries,
            deadline=cfg.deadline, max_workers=cfg.max_workers,
        )
        self.store = ResultStore(self.config.store_root)
        self._inflight: dict[str, asyncio.Task] = {}
        self._server: asyncio.AbstractServer | None = None
        self.port: int | None = None
        #: Fitted surrogate models this server may answer from, loaded
        #: from the store's ``surrogate`` records once at startup (restart
        #: to pick up later fits).
        self.registry = SurrogateRegistry()
        self._refine_tasks: set[asyncio.Task] = set()
        self._audit = SurrogateAuditor(
            self.registry, fraction=self.config.audit_fraction)
        self._slo = obs_health.SloAggregator()
        self._ready = False
        self._owns_metrics = False
        self._owns_journal = False

    # -- lifecycle -------------------------------------------------------------------

    def _events_path(self) -> os.PathLike | str | None:
        path = self.config.events_path
        if path == "auto":
            return self.store.root / "events.jsonl"
        return path

    async def start(self) -> None:
        """Bind, then warm the surrogate registry before reporting ready.

        Binding first keeps ``/healthz`` answerable (``"warming"``) while
        the store scan runs; metrics and the event journal are enabled
        here when no process-wide ones exist (whichever this service
        enables is disabled again on :meth:`close`).
        """
        if obs_metrics.active_registry() is None:
            obs_metrics.enable_metrics()
            self._owns_metrics = True
        events_path = self._events_path()
        if events_path is not None and obs_events.active_journal() is None:
            obs_events.enable_events(events_path)
            self._owns_journal = True
        self._server = await asyncio.start_server(
            self._handle, host=self.config.host, port=self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.surrogate:
            await asyncio.to_thread(self._warm_from_store)
        self._ready = True
        # Baseline SLO sample: the first /statusz window measures traffic
        # since startup, not an empty single-point delta.
        self._slo.sample(obs_metrics.active_registry())
        obs_events.emit("service_ready", port=self.port,
                        models=len(self.registry))

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def run(self, announce=None) -> None:
        """Start, optionally announce the bound address, and serve forever."""
        await self.start()
        if announce is not None:
            announce(
                f"repro service listening on "
                f"http://{self.config.host}:{self.port} "
                f"(store: {self.store.root})"
            )
        await self.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._inflight.values()):
            task.cancel()
        for task in list(self._refine_tasks):
            task.cancel()
        if self._owns_metrics:
            obs_metrics.disable_metrics()
            self._owns_metrics = False
        if self._owns_journal:
            obs_events.disable_events()
            self._owns_journal = False
        self._ready = False

    async def drain_background(self) -> None:
        """Await every pending background refinement (tests and shutdown)."""
        while self._refine_tasks:
            await asyncio.gather(*list(self._refine_tasks),
                                 return_exceptions=True)

    # -- HTTP plumbing ---------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        start = time.perf_counter()
        endpoint = "unparsed"
        # One timer bounds the whole read: on expiry the pending read fails
        # as if the client had dropped the connection.
        deadline = asyncio.get_running_loop().call_later(
            READ_TIMEOUT_S, reader.set_exception,
            ConnectionAbortedError("request read deadline expired"))
        try:
            try:
                try:
                    method, path, body = await self._read_request(reader)
                finally:
                    deadline.cancel()
                endpoint = path
                status, payload, ctype = await self._dispatch(method, path, body)
            except BadRequest as exc:
                status, payload, ctype = 400, {"error": str(exc)}, "application/json"
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away or stalled mid-request; no answer
            except Exception as exc:  # computation / internal failures -> 500
                status = 500
                payload = {"error": f"{type(exc).__name__}: {exc}"}
                ctype = "application/json"
                obs_metrics.inc("repro_service_errors_total",
                                labels={"endpoint": endpoint})
                obs_events.emit("service_error", endpoint=endpoint,
                                error=f"{type(exc).__name__}: {exc}")
            body_bytes = payload if isinstance(payload, bytes) else (
                json.dumps(payload, sort_keys=True) + "\n").encode()
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body_bytes)}\r\n"
                f"Connection: close\r\n\r\n"
            )
            writer.write(head.encode() + body_bytes)
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            obs_metrics.observe("repro_service_request_seconds",
                                time.perf_counter() - start,
                                labels={"endpoint": endpoint})

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise BadRequest("malformed request line")
        method, target = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        total = 0
        while True:
            line = await _read_line(reader)
            total += len(line)
            if total > MAX_HEADER_BYTES:
                raise BadRequest("header block too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0") or "0"
        # ASCII digits only: int() would also take "+5", "1_0" and
        # non-ASCII digits.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise BadRequest(f"invalid Content-Length {raw_length[:32]!r}")
        # Count digits before int(), which refuses over-long digit strings.
        digits = raw_length.lstrip("0") or "0"
        if len(digits) > len(str(MAX_BODY_BYTES)) or int(digits) > MAX_BODY_BYTES:
            raise BadRequest("request body too large")
        length = int(digits)
        body = await reader.readexactly(length) if length else b""
        return method, target.split("?", 1)[0], body

    async def _dispatch(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}, "application/json"
            # Liveness answers as soon as the socket is bound; readiness
            # ("ok") waits for the surrogate warm-up.  /statusz has the
            # detailed view.
            return 200, {"status": "ok" if self._ready else "warming",
                         "store": str(self.store.root),
                         "inflight": len(self._inflight)}, "application/json"
        if path == "/statusz":
            if method != "GET":
                return 405, {"error": "GET only"}, "application/json"
            return 200, self._statusz(), "application/json"
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "GET only"}, "application/json"
            registry = obs_metrics.active_registry()
            text = "" if registry is None else to_prometheus_text(registry)
            return 200, text.encode(), "text/plain; version=0.0.4; charset=utf-8"
        handlers = {"/simulate": self._handle_simulate,
                    "/sweep": self._handle_sweep,
                    "/montecarlo": self._handle_montecarlo}
        handler = handlers.get(path)
        if handler is None:
            return 404, {"error": f"no such endpoint {path!r}"}, "application/json"
        if method != "POST":
            return 405, {"error": "POST only"}, "application/json"
        try:
            params = json.loads(body.decode() or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc
        return 200, await handler(params), "application/json"

    def _statusz(self) -> dict:
        """The ``GET /statusz`` payload (see ``docs/observability.md``)."""
        surrogate = {
            "enabled": self.config.surrogate,
            "models": len(self.registry),
            "audit": self._audit.as_payload(),
        }
        return obs_health.statusz_snapshot(
            ready=self._ready,
            store={
                "root": str(self.store.root),
                "records": len(self.store),
                "quarantined": len(self.store.quarantined()),
            },
            inflight=len(self._inflight),
            registry=obs_metrics.active_registry(),
            slo=self._slo,
            surrogate=surrogate,
            journal=obs_events.active_journal(),
        )

    # -- endpoints -------------------------------------------------------------------

    async def _handle_simulate(self, params) -> dict | bytes:
        params = _check_params(
            params, _SPEC_PARAMS | {"include_waveforms", "surrogate"},
            "/simulate")
        spec = _spec_from(params)
        options = _parse_options(params.get("options"))
        include_waveforms = _flag(params, "include_waveforms")
        use_surrogate = _flag(params, "surrogate") and self.config.surrogate
        with trace.span("service_request", endpoint="simulate"):
            key = result_key(spec, options=options)
            if use_surrogate and options is None:
                payload = self._try_surrogate(spec, key, include_waveforms)
                if payload is not None:
                    return payload
            stored, outcome = await self._serve_simulation(
                key, spec, options, endpoint="simulate")
        return self._simulation_payload(stored, outcome, include_waveforms)

    async def _handle_sweep(self, params) -> dict:
        params = _check_params(
            params, _SPEC_PARAMS | {"knob", "values"}, "/sweep")
        knob = str(params.get("knob", "n_drivers"))
        if knob not in KNOBS:
            raise BadRequest(
                f"unknown sweep knob {knob!r}; choose from {sorted(KNOBS)}")
        values = params.get("values")
        if not isinstance(values, list) or not values:
            raise BadRequest("'values' must be a non-empty JSON array")
        if None in values:  # _spec_from reads null as "field not set"
            raise BadRequest(f"invalid {knob} value None")
        options = _parse_options(params.get("options"))
        specs = [_spec_from({"n_drivers": 4, **params, knob: value})
                 for value in values]
        with trace.span("service_request", endpoint="sweep", points=len(specs)):
            served = await asyncio.gather(*(
                self._serve_simulation(result_key(spec, options=options),
                                       spec, options, endpoint="sweep")
                for spec in specs
            ))
        points = []
        for value, (stored, outcome) in zip(values, served):
            points.append({
                "value": value,
                "key": stored.head["key"],
                "outcome": outcome,
                "peak_voltage": stored.head["peak_voltage"],
                "peak_time": stored.head["peak_time"],
            })
        return {"knob": knob, "points": points}

    async def _handle_montecarlo(self, params) -> dict:
        params = _check_params(
            params,
            _SPEC_PARAMS | {"trials", "seed", "vth_sigma", "mu_sigma"},
            "/montecarlo")
        spec = _spec_from(params)
        options = _parse_options(params.get("options"))
        if options is not None:
            raise BadRequest("/montecarlo does not accept 'options' yet")
        try:
            trials = whole_number(params.get("trials", 64))
            seed = whole_number(params.get("seed", 0))
            spread = DeviceSpread(
                **{k: _json_number(params[k]) for k in ("vth_sigma", "mu_sigma")
                   if params.get(k) is not None})
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadRequest(f"invalid Monte Carlo parameters: {exc}") from exc
        if trials < 2 or seed < 0:  # a spread needs two draws; numpy seeds are >= 0
            raise BadRequest("'trials' must be at least 2 and 'seed' non-negative")
        extra = {"trials": trials, "seed": seed, "spread": repr(spread)}
        key = result_key(spec, kind="montecarlo", extra=extra)
        with trace.span("service_request", endpoint="montecarlo"):
            stored, outcome = await self._serve_record(
                key, "montecarlo", endpoint="montecarlo",
                compute=lambda: self._compute_montecarlo_sync(
                    key, spec, spread, extra),
            )
        record = stored.head
        return {
            "key": key, "outcome": outcome,
            "trials": trials, "seed": seed,
            "mean": record["mean"], "std": record["std"],
            "p95": record["p95"], "nominal": record["nominal"],
            "samples": record["samples"],
            "telemetry": record.get("telemetry"),
        }

    # -- surrogate-first answering ---------------------------------------------------

    def _warm_from_store(self) -> None:
        """Eagerly register every stored surrogate model (startup warm-up).

        Runs on a worker thread before the server reports ready, and is
        deliberately read-only: files are read through
        :func:`~repro.service.store.read_head` rather than
        :meth:`ResultStore.load`, so a startup scan never decodes a
        simulation's waveforms, ticks hit/miss counters or quarantines
        records the serving path would handle (and count) itself.  A
        record of another schema version is left for that path too.
        This scan is the registry's only warm-up: a request never probes
        the store for models.
        """
        for path in sorted(self.store.root.glob("??/*.json")):
            record = read_head(path)
            if (not isinstance(record, dict) or record.get("kind") != "surrogate"
                    or record.get("schema") != RECORD_SCHEMA_VERSION):
                continue
            try:
                model = surrogate_from_record(record)
            except (KeyError, TypeError, ValueError):
                continue
            self.registry.register(model)
            obs_metrics.inc("repro_surrogate_warmed_total")

    def _try_surrogate(self, spec: DriverBankSpec, key: str,
                       include_waveforms: bool) -> dict | None:
        """The closed-form answer for an in-region request, or None.

        Refusals and misses return None — the caller falls through to the
        exact dedup/store/dispatch path, bit-identical to a server with
        no surrogate tier (the registry's ``repro_surrogate_*`` counters
        record why).  A hit optionally schedules background refinement so
        the golden record eventually backs the same key; once it does (or
        the exact answer was ever computed), the store hit outranks the
        surrogate — approximate answers only ever stand in for work not
        yet done.
        """
        if key in self.store:
            return None  # the exact record is already on disk
        model, _reason = self.registry.lookup(spec)
        if model is None:
            return None
        sim = model.simulation(spec)
        if self.config.surrogate_refine:
            if self._schedule_refinement(key, spec):
                # Shadow audit: the background golden refinement doubles
                # as the reference for a sampled fraction of answers.
                self._audit.track(key, model, sim.peak_voltage)
        obs_metrics.inc("repro_service_requests_total",
                        labels={"endpoint": "simulate", "outcome": "surrogate"})
        obs_events.emit("service_request", endpoint="simulate",
                        outcome="surrogate", key=key[:12])
        payload = {
            "key": key,
            "outcome": "surrogate",
            "peak_voltage": sim.peak_voltage,
            "peak_time": sim.peak_time,
            "engine": "surrogate",
            "telemetry": sim.telemetry.as_dict(),
            "surrogate": {
                "technology": model.technology,
                "topology": model.topology,
                "operating_region": model.operating_region,
                "error_bound_percent": model.error.max_abs_percent,
                "tolerance_percent": model.tolerance_percent,
            },
        }
        if include_waveforms:
            payload["waveforms"] = {
                name: _waveform_payload(getattr(sim, name))
                for name in WAVEFORM_FIELDS
            }
        return payload

    def _schedule_refinement(self, key: str, spec: DriverBankSpec) -> bool:
        """Fire-and-forget the golden computation behind a surrogate answer.

        Returns whether a refinement task was actually created (the audit
        monitor only enrolls keys whose golden reference will arrive).
        """
        if key in self._inflight or key in self.store:
            return False
        task = asyncio.get_running_loop().create_task(self._refine(key, spec))
        self._refine_tasks.add(task)
        task.add_done_callback(self._refine_tasks.discard)
        return True

    async def _refine(self, key: str, spec: DriverBankSpec) -> None:
        try:
            stored, _ = await self._serve_record(
                key, "simulate", endpoint="surrogate_refine",
                compute=lambda: self._compute_simulation_sync(key, spec, None),
            )
        except Exception:
            # Background work: the client already has its answer, and the
            # next exact request recomputes; just count the failure.
            obs_metrics.inc("repro_surrogate_refine_errors_total")
            obs_events.emit("surrogate_refine_failed", key=key[:12])
            self._audit.discard(key)
        else:
            # The refined record is the golden MNA answer — resolve the
            # shadow audit (a no-op for unsampled keys).
            reference = stored.head.get("peak_voltage")
            if isinstance(reference, (int, float)):
                self._audit.resolve(key, reference)
            else:
                self._audit.discard(key)

    # -- serving core ----------------------------------------------------------------

    async def _serve_simulation(self, key: str, spec: DriverBankSpec,
                                options: TransientOptions | None,
                                endpoint: str):
        """Serve ``spec`` under its (caller-hashed) ``result_key``."""
        return await self._serve_record(
            key, "simulate", endpoint=endpoint,
            compute=lambda: self._compute_simulation_sync(key, spec, options),
        )

    async def _serve_record(self, key: str, kind: str, endpoint: str, compute):
        """hit / dedup / miss resolution of one keyed request.

        Returns ``(stored, outcome)`` with ``stored`` a
        :class:`~repro.service.store.StoredRecord` on every path.
        ``compute`` is a zero-argument sync function returning the record
        dict; on a miss it runs on a worker thread, its result is
        atomically published through :meth:`ResultStore.put`, and every
        deduped follower of the same key receives the same stored record.
        """
        task = self._inflight.get(key)
        if task is not None:
            outcome = "dedup"
            stored = await asyncio.shield(task)
        else:
            stored = self.store.load(key)
            if stored is not None and stored.head.get("kind") == kind:
                outcome = "hit"
            else:
                outcome = "miss"
                task = asyncio.get_running_loop().create_task(
                    self._compute_and_publish(key, compute))
                self._inflight[key] = task
                stored = await asyncio.shield(task)
        obs_metrics.inc("repro_service_requests_total",
                        labels={"endpoint": endpoint, "outcome": outcome})
        obs_events.emit("service_request", endpoint=endpoint,
                        outcome=outcome, key=key[:12])
        return stored, outcome

    async def _compute_and_publish(self, key: str, compute) -> StoredRecord:
        try:
            with trace.span("service_compute", key=key[:12]):
                record = await asyncio.to_thread(compute)
                return await asyncio.to_thread(self.store.put, key, record)
        except Exception as exc:
            # A dispatched computation died past its whole recovery
            # ladder: preserve the moments before it for the operator.
            obs_events.emit("service_compute_failed", key=key[:12],
                            error=f"{type(exc).__name__}: {exc}")
            obs_health.maybe_flight_record(
                self.config.flight_dir, "service_compute_failed",
                extra={"key": key, "error": f"{type(exc).__name__}: {exc}"})
            raise
        finally:
            self._inflight.pop(key, None)

    def _compute_simulation_sync(self, key: str, spec: DriverBankSpec,
                                 options: TransientOptions | None) -> dict:
        """Miss path: dispatch one spec onto the fault-tolerant runner.

        The campaign executes (and journals nothing — no checkpoint is
        configured for interactive traffic) through the full retry /
        degradation ladder; the warm in-process memo then hands the full
        waveform set over without a second solve.
        """
        obs_metrics.inc("repro_service_computes_total")
        runner = CampaignRunner(self._runner_config)
        records = runner.run_specs([spec], kind="service-simulate",
                                   options=options)
        rung = records[0]["engine"]
        sim = simulate_ssn_cached(spec, options=options)
        return simulation_record(key, sim, meta={
            "engine": rung,
            "request": canonical_request(spec, options=options),
        })

    def _compute_montecarlo_sync(self, key: str, spec: DriverBankSpec,
                                 spread: DeviceSpread, extra: dict) -> dict:
        """Miss path of ``/montecarlo``; ``extra`` is the key's payload."""
        obs_metrics.inc("repro_service_computes_total")
        result = CampaignRunner(self._runner_config).run_montecarlo(
            spec, spread=spread, trials=extra["trials"], seed=extra["seed"])
        return montecarlo_record(key, result, meta={
            "request": canonical_request(spec, kind="montecarlo", extra=extra),
        })

    # -- payload shaping -------------------------------------------------------------

    @staticmethod
    def _simulation_payload(stored: StoredRecord, outcome: str,
                            include_waveforms: bool) -> bytes:
        """The ``/simulate`` response body for a hit, miss or dedup.

        The small fields render here; the waveforms are the record's
        verified stored bytes, spliced in as the last member (``"waveforms"``
        sorts last), so they are never decoded or re-rendered.
        """
        head = stored.head
        text = json.dumps({
            "key": head["key"],
            "outcome": outcome,
            "peak_voltage": head["peak_voltage"],
            "peak_time": head["peak_time"],
            "engine": head.get("meta", {}).get("engine"),
            "telemetry": head.get("telemetry"),
        }, sort_keys=True)
        if not include_waveforms:
            return (text + "\n").encode()
        return b"".join((text[:-1].encode(), b', "waveforms": ',
                         stored.waveforms_json, b"}\n"))


def run_server(config: ServiceConfig | None = None, announce=None,
               **kwargs) -> None:
    """Blocking entry point: serve until interrupted (the CLI's path)."""
    service = SsnService(config, **kwargs)
    asyncio.run(service.run(announce=announce))
