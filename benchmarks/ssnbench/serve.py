"""Serve workloads: the fixture store, server processes and the load generator.

Load comes from the harness process alone, over loopback.  The server
closes every connection after one response, so each request opens its
own: ``serve_hit`` is a closed loop with one connection at a time
(blocking sockets, no threads) and ``serve_mixed`` is an open loop on
one asyncio thread with at most two connections in flight.  Each request
is timed to the last byte of its response and parsed afterwards, which is
why the program's own clients (they parse inside the call) are not used.
In the open loop a request is timed from the moment it was due, so a
stall also charges the requests that queued behind it.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads
from library import vm_hwm_mb

HOST = "127.0.0.1"
HERE = Path(__file__).resolve().parent
#: Connections the load generator may hold open at once.
MAX_CONNECTIONS = 2


# -- fixture -------------------------------------------------------------------------


def build_fixture(store: str) -> None:
    """Fill ``store`` with the working set's golden records and a surrogate.

    A throwaway in-process server (journal off) answers every working-set
    request, then ``repro surrogate fit --store`` fits the default-box
    L-only surrogate into the same store.
    """
    from repro.cli import main as cli_main
    from repro.service import SsnService, arequest

    async def answer_working_set() -> None:
        service = SsnService(store_root=store, port=0, events_path=None)
        await service.start()
        try:
            for request in workloads.working_set():
                status, payload = await arequest(
                    HOST, service.port, "POST", "/simulate",
                    dict(request, include_waveforms=False))
                if status != 200 or payload.get("outcome") != "miss":
                    raise RuntimeError(f"fixture request failed: {status} {payload}")
        finally:
            await service.close()

    asyncio.run(answer_working_set())
    if cli_main(["surrogate", "fit", "--store", store]) != 0:
        raise RuntimeError("repro surrogate fit failed")


# -- server process ------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


def call(port: int, method: str, path: str, payload: dict | None = None,
         timeout: float = 120.0) -> tuple[int, bytes]:
    """One blocking HTTP/1.1 request; returns (status, body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n").encode()
    chunks = []
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.sendall(head + body)
        while True:
            data = sock.recv(1 << 16)
            if not data:
                break
            chunks.append(data)
    header, _, payload_bytes = b"".join(chunks).partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload_bytes


class ServerProcess:
    """One ``repro serve`` process on a free loopback port.

    ``spans`` runs the server through the traced launcher
    (:mod:`tracing`) instead, which writes its spans there on stop.
    """

    def __init__(self, store: Path, env: dict, log, spans: Path | None = None):
        self.port = free_port()
        args = ["serve", "--port", str(self.port), "--store", str(store)]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracing.py"), str(spans), *args]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=log,
                                     preexec_fn=hostspeed.pin_measured)

    def wait_ready(self, timeout: float = 60.0) -> tuple[float, float]:
        """Times of the first ``/healthz`` answer and of the first "ok".

        They are ``time.perf_counter`` readings, like :attr:`spawned`.
        """
        first = None
        while True:
            elapsed = time.perf_counter() - self.spawned
            if elapsed > timeout or self.proc.poll() is not None:
                raise RuntimeError(f"server not ready after {elapsed:.1f}s "
                                   f"(exit {self.proc.poll()})")
            try:
                status, body = call(self.port, "GET", "/healthz", timeout=5.0)
            except OSError:
                time.sleep(0.002)
                continue
            now = time.perf_counter()
            first = now if first is None else first
            if status == 200 and json.loads(body)["status"] == "ok":
                return first, now
            time.sleep(0.002)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        return vm_hwm_mb(str(self.proc.pid))

    def drain(self, timeout: float = 120.0) -> None:
        """Wait until no computation (refinements included) is in flight."""
        deadline = time.perf_counter() + timeout
        while json.loads(call(self.port, "GET", "/healthz")[1])["inflight"]:
            if time.perf_counter() > deadline:
                raise RuntimeError("server did not drain its background work")
            time.sleep(0.01)

    def stop(self) -> int:
        """SIGINT (the CLI's clean shutdown), then wait; kill as a last resort."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            return self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()


def scrape(port: int) -> dict[str, float]:
    """``/metrics`` as ``{"name{labels}": value}``."""
    status, body = call(port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    out = {}
    for line in body.decode().splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            out[key] = float(value)
    return out


def metric(sample: dict[str, float], name: str, **labels) -> float:
    """Sum of one metric over the series whose labels include ``labels``."""
    total = 0.0
    for key, value in sample.items():
        base, _, rest = key.partition("{")
        if base == name and all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total


# -- load generators -----------------------------------------------------------------


def parse_reply(status: int, body: bytes, waveforms: bool) -> dict:
    """What the checks need from one response (bodies are not kept)."""
    reply = {"status": status, "kb": len(body) / 1024.0}
    try:
        payload = json.loads(body)
    except ValueError as exc:
        return dict(reply, error=f"unparseable body: {exc}")
    if status != 200:
        return dict(reply, error=str(payload.get("error")))
    reply.update(outcome=payload.get("outcome"), peak=payload.get("peak_voltage"),
                 tolerance=(payload.get("surrogate") or {}).get("tolerance_percent"))
    if waveforms:
        waves = payload.get("waveforms") or {}
        reply["waveforms_ok"] = len(waves) == 5 and all(
            len(w["t"]) == len(w["y"]) > 1 for w in waves.values())
    return reply


def closed_loop(port: int, requests: list[tuple[dict, bool]]) -> list[dict]:
    """Send ``requests`` one after another, one connection at a time."""
    out = []
    for request, waveforms in requests:
        start = time.perf_counter()
        try:
            status, body = call(port, "POST", "/simulate",
                                dict(request, include_waveforms=waveforms))
        except OSError as exc:
            reply = {"status": 0, "error": repr(exc), "kb": 0.0}
        else:
            reply = parse_reply(status, body, waveforms)
        reply["ms"] = (time.perf_counter() - start) * 1e3
        out.append({"request": request, "expected": ["hit"], "late_ms": 0.0,
                    "replies": [reply]})
    return out


class ConnectionSlots:
    """At most ``limit`` connections in flight.

    ``acquire(n)`` takes ``n`` slots in one step.  A pair that took its
    two connections one at a time could hold one while the other pair
    held the second, and both would wait forever.
    """

    def __init__(self, limit: int = MAX_CONNECTIONS):
        self.limit = limit
        self.in_use = 0
        self._changed = asyncio.Condition()

    async def acquire(self, n: int) -> None:
        if n > self.limit:
            raise ValueError(f"cannot take {n} of {self.limit} connections")
        async with self._changed:
            await self._changed.wait_for(lambda: self.limit - self.in_use >= n)
            self.in_use += n

    async def release(self, n: int) -> None:
        async with self._changed:
            self.in_use -= n
            self._changed.notify_all()


async def _async_call(port: int, payload: dict) -> tuple[int, bytes, float]:
    """One request on its own connection; (status, body, time of last byte)."""
    body = json.dumps(payload).encode()
    reader, writer = await asyncio.open_connection(HOST, port)
    try:
        writer.write((f"POST /simulate HTTP/1.1\r\nHost: {HOST}\r\n"
                      f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
                      "Connection: close\r\n\r\n").encode() + body)
        await writer.drain()
        raw = await reader.read()
        done = time.perf_counter()
    finally:
        writer.close()
        await writer.wait_closed()
    header, _, payload_bytes = raw.partition(b"\r\n\r\n")
    return int(header.split(b" ", 2)[1]), payload_bytes, done


async def open_loop(port: int, schedule: list[dict],
                    limit: int = MAX_CONNECTIONS) -> list[dict]:
    """Send every slot at its due time; returns one result per slot.

    Slots are dispatched in due order by one coroutine: a slot that finds
    no free connection waits, and the slots behind it wait too.  Lateness
    (send minus due) records that wait; latency runs from the due time.
    """
    slots = ConnectionSlots(limit)
    origin = time.perf_counter() + 0.05
    results: list[dict | None] = [None] * len(schedule)

    async def fire(i: int, slot: dict, n: int, due: float) -> None:
        payload = dict(slot["request"], include_waveforms=False)
        try:
            replies = await asyncio.gather(*(_async_call(port, payload) for _ in range(n)),
                                           return_exceptions=True)
        finally:
            await slots.release(n)
        parsed = []
        for reply in replies:
            if isinstance(reply, BaseException):
                parsed.append({"status": 0, "error": repr(reply), "kb": 0.0, "ms": 0.0})
            else:
                status, body, done = reply
                parsed.append(dict(parse_reply(status, body, False),
                                   ms=(done - due) * 1e3))
        results[i]["replies"] = parsed

    tasks = []
    for i, slot in enumerate(schedule):
        due = origin + slot["due"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        n = 2 if slot["kind"] == "pair" else 1
        await slots.acquire(n)
        results[i] = {"request": slot["request"], "kind": slot["kind"],
                      "expected": EXPECTED_OUTCOMES[slot["kind"]],
                      "late_ms": (time.perf_counter() - due) * 1e3}
        tasks.append(asyncio.create_task(fire(i, slot, n, due)))
    await asyncio.gather(*tasks)
    return results


EXPECTED_OUTCOMES = {"hit": ["hit"], "surrogate": ["surrogate"], "miss": ["miss"],
                     "pair": ["dedup", "miss"]}


# -- one measured phase --------------------------------------------------------------


def _store_files(store: Path) -> set[Path]:
    return set(store.glob("??/*.json"))


def serve_phase(workload: str, seed: int, seconds: float, server: ServerProcess,
                store: Path, scrape_metrics: bool) -> dict:
    """Drive one ready server with ``seconds`` of work; returns the raw data.

    The work is a fixed function of seed and seconds: a request count for
    ``serve_hit``, a schedule for ``serve_mixed``.  ``scrape_metrics`` is
    off for a traced server, whose spans would otherwise include the
    scrapes.
    """
    journal = store / "events.jsonl"
    offset = journal.stat().st_size if journal.exists() else 0
    files_before = _store_files(store)
    before = scrape(server.port) if scrape_metrics else {}
    cpu0, start = server.cpu_s(), time.perf_counter()
    if workload == "serve_hit":
        ws = workloads.working_set()
        stream = workloads.hit_stream(seed, workloads.hit_requests(seconds))
        slots = closed_loop(server.port, [(ws[i], wf) for i, wf in stream])
    else:
        schedule = workloads.mixed_schedule(seed, seconds)
        slots = asyncio.run(open_loop(server.port, schedule))
    server.drain()
    phase = {
        "slots": slots, "cpu_s": server.cpu_s() - cpu0,
        "window": [start, time.perf_counter()],
        "metrics": {}, "journal": {"events": 0, "bytes": 0, "names": {}},
        "records": [],
    }
    if scrape_metrics:
        after = scrape(server.port)
        phase["metrics"] = {k: v - before.get(k, 0.0) for k, v in after.items()}
    if journal.exists():
        with open(journal, "rb") as fh:
            fh.seek(offset)
            lines = fh.read().splitlines()
        names = collections.Counter(json.loads(line)["name"] for line in lines)
        phase["journal"] = {"events": len(lines), "names": dict(names),
                            "bytes": sum(len(line) + 1 for line in lines)}
    for path in sorted(_store_files(store) - files_before):
        record = json.loads(path.read_text())
        if record.get("kind") == "simulate":
            phase["records"].append(record.get("telemetry") or {})
    return phase


if __name__ == "__main__":
    # serve.py fixture STORE: the fixture child process.
    if sys.argv[1:2] != ["fixture"] or len(sys.argv) != 3:
        sys.exit("usage: serve.py fixture STORE")
    build_fixture(sys.argv[2])
