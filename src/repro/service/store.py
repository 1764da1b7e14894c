"""Persistent, content-addressed store of golden SSN results.

One record per :func:`repro.service.keys.result_key`, written as a
schema-versioned JSON file through the shared crash-safe
:func:`repro.observability.atomic.atomic_write` (tempfile + fsync +
``os.replace``), so a reader — or a crash at any instant — sees either no
record or a complete record, never a torn one.  Every load re-validates
the record: JSON shape, schema version, key match (the file content must
hash-address itself) and an embedded SHA-256 checksum.  A record failing
any check is *quarantined* — moved aside into ``quarantine/`` and treated
as a miss — so one corrupt file costs one recompute, never a crash or a
wrong answer.

Layout (schema 2): ``{"checksum":"<sha256>",`` then the rest of the
compact, key-sorted rendering of every other field, then a newline.  The
checksum is the SHA-256 of exactly those body bytes, so a load verifies
the file as written without decoding it, and ``"waveforms"`` sorts last,
so a simulation's waveforms are one contiguous byte slice at the end of
the file.  :meth:`ResultStore.load` decodes only the head before that
slice and hands the slice on as bytes (:class:`StoredRecord`); the
server splices it into a response unchanged.

Float fidelity: samples and summary numbers serialize through
:mod:`json`, whose float rendering is ``repr`` — the shortest exact round
trip — so a stored simulation deserializes bit-identical to the run that
produced it, and the waveform text a hit serves is the text a fresh
rendering would produce.  Deserialized waveform arrays come back frozen
(``writeable=False``), the same read-only contract as the in-process
memo.

Threat model: the checksum catches corruption — torn or truncated
files, flipped bytes, hand edits — and rejects any byte change, even one
that re-parses to the same values.  It is not a signature: a writer able
to recompute it can write any record, and such a writer was already
trusted with the store directory.

The ``crash-write`` rule of the deterministic fault injector
(:mod:`repro.testing.faults`) fires mid-write here exactly as it does in
the campaign checkpoint journal, under fault scope ``phase="store"`` so
tests can target store writes alone.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.montecarlo import MonteCarloResult
from ..analysis.simulate import SsnSimulation, freeze_simulation
from ..observability import events as obs_events
from ..observability import metrics as obs_metrics
from ..observability.atomic import atomic_write
from ..spice.telemetry import SolverTelemetry
from ..spice.waveform import Waveform
from ..testing import faults

#: Bumped on incompatible record-layout changes; a stored record with any
#: other version is quarantined and recomputed, never misread.
RECORD_SCHEMA_VERSION = 2

#: The five waveforms a simulation record persists, in layout order.
WAVEFORM_FIELDS = ("ssn", "inductor_current", "driver_current",
                   "input_voltage", "output_voltage")


#: A record file opens with its checksum member: this prefix, 64 hex
#: digits and ``",``; the body the checksum covers follows.
_CHECKSUM_PREFIX = b'{"checksum":"'
_BODY_OFFSET = len(_CHECKSUM_PREFIX) + 64 + 2
#: The top-level waveforms member.  It sorts last, so its value runs to
#: the file's closing ``}\n``.
_WAVEFORMS_MEMBER = b',"waveforms":'


def _encode_record(record: dict) -> bytes:
    """The file bytes of one record: checksum member first, then the body."""
    body = json.dumps({k: v for k, v in record.items() if k != "checksum"},
                      sort_keys=True, separators=(",", ":")).encode()
    digest = hashlib.sha256(body).hexdigest().encode()
    return b"".join((_CHECKSUM_PREFIX, digest, b'",', memoryview(body)[1:], b"\n"))


def _checksum_matches(data: bytes) -> bool:
    """Whether the hex digest at the file's prefix hashes the bytes after it."""
    if not (data.startswith(_CHECKSUM_PREFIX) and data.endswith(b"\n")
            and data[_BODY_OFFSET - 2:_BODY_OFFSET] == b'",'):
        return False
    digest = hashlib.sha256(b"{")
    digest.update(memoryview(data)[_BODY_OFFSET:-1])
    return digest.hexdigest().encode() == data[len(_CHECKSUM_PREFIX):_BODY_OFFSET - 2]


def _split_record(data: bytes) -> tuple[object, bytes | None]:
    """Decode a record file's head, leaving its waveforms as stored bytes.

    Returns ``(head, waveforms_json)``: the top-level value minus its
    ``waveforms`` member, and that member's exact JSON text (None when
    absent).  Only the top-level member splits off: cutting at a nested
    ``"waveforms"`` key (say inside a caller's ``meta``) leaves an object
    unclosed, so the head fails to parse and the file decodes whole, as
    does a file in any other layout.  Raises ``ValueError`` (or
    ``RecursionError``) when the bytes are not JSON.
    """
    cut = data.rfind(_WAVEFORMS_MEMBER)
    if cut > 0 and data.endswith(b"}\n"):
        try:
            return (json.loads(data[:cut] + b"}"),
                    data[cut + len(_WAVEFORMS_MEMBER):-2])
        except ValueError:
            pass
    return json.loads(data), None


def read_head(path: str | os.PathLike):
    """The decoded head of a record file, unvalidated; None if unreadable.

    For read-only scans (the server's surrogate warm-up, ``repro
    status``): the same head split as :meth:`ResultStore.load`, but no
    checks, no counters and no quarantine.  Waveforms are never decoded.
    """
    try:
        return _split_record(Path(path).read_bytes())[0]
    except (OSError, ValueError, RecursionError):
        return None


@dataclasses.dataclass(frozen=True)
class StoredRecord:
    """One verified store record, its waveforms left as the stored bytes.

    Attributes:
        head: every top-level field except ``waveforms``, decoded.
        waveforms_json: the exact stored JSON text of the ``waveforms``
            value, which a response splices in unchanged; None for
            records without waveforms (Monte Carlo, surrogate).
    """

    head: dict
    waveforms_json: bytes | None = None

    def decode(self) -> dict:
        """The full record dict (``ValueError`` if the waveforms are not JSON)."""
        record = dict(self.head)
        if self.waveforms_json is not None:
            record["waveforms"] = json.loads(self.waveforms_json)
        return record


def _waveform_payload(wf: Waveform) -> dict:
    return {"t": wf.t.tolist(), "y": wf.y.tolist()}


def _waveform_from(payload: dict) -> Waveform:
    wf = Waveform(np.asarray(payload["t"], dtype=float),
                  np.asarray(payload["y"], dtype=float))
    wf.t.setflags(write=False)
    wf.y.setflags(write=False)
    return wf


def simulation_record(key: str, sim: SsnSimulation,
                      meta: dict | None = None) -> dict:
    """Render one golden simulation as a store record (sans checksum)."""
    record = {
        "schema": RECORD_SCHEMA_VERSION,
        "key": key,
        "kind": "simulate",
        "spec": repr(sim.spec),
        "peak_voltage": float(sim.peak_voltage),
        "peak_time": float(sim.peak_time),
        "waveforms": {name: _waveform_payload(getattr(sim, name))
                      for name in WAVEFORM_FIELDS},
        "telemetry": None if sim.telemetry is None else sim.telemetry.as_dict(),
        "meta": dict(meta or {}),
    }
    return record


def simulation_from_record(record: dict, spec: DriverBankSpec) -> SsnSimulation:
    """Rebuild the :class:`SsnSimulation` a record serialized.

    The spec is supplied by the caller (who derived the record's key from
    it) rather than parsed back out of the record — specs embed technology
    cards whose identity lives in the process, not the JSON.
    """
    waveforms = {name: _waveform_from(record["waveforms"][name])
                 for name in WAVEFORM_FIELDS}
    telemetry = record.get("telemetry")
    return freeze_simulation(SsnSimulation(
        spec=spec,
        peak_voltage=float(record["peak_voltage"]),
        peak_time=float(record["peak_time"]),
        telemetry=None if telemetry is None else SolverTelemetry.from_dict(telemetry),
        **waveforms,
    ))


def montecarlo_record(key: str, result: MonteCarloResult,
                      meta: dict | None = None) -> dict:
    """Render one Monte Carlo distribution as a store record (sans checksum)."""
    return {
        "schema": RECORD_SCHEMA_VERSION,
        "key": key,
        "kind": "montecarlo",
        "samples": np.asarray(result.samples, dtype=float).tolist(),
        "mean": float(result.mean),
        "std": float(result.std),
        "p95": float(result.p95),
        "nominal": float(result.nominal),
        "telemetry": None if result.telemetry is None else result.telemetry.as_dict(),
        "meta": dict(meta or {}),
    }


def montecarlo_from_record(record: dict) -> MonteCarloResult:
    """Rebuild the :class:`MonteCarloResult` a record serialized."""
    samples = np.asarray(record["samples"], dtype=float)
    samples.setflags(write=False)
    telemetry = record.get("telemetry")
    return MonteCarloResult(
        samples=samples,
        mean=float(record["mean"]),
        std=float(record["std"]),
        p95=float(record["p95"]),
        nominal=float(record["nominal"]),
        telemetry=None if telemetry is None else SolverTelemetry.from_dict(telemetry),
    )


def surrogate_record(key: str, model, meta: dict | None = None) -> dict:
    """Render one fitted surrogate model as a store record (sans checksum).

    ``model`` is a :class:`repro.surrogate.SurrogateModel`; typed loosely
    so the store module never imports the surrogate package (which builds
    on the analysis stack) at import time.
    """
    return {
        "schema": RECORD_SCHEMA_VERSION,
        "key": key,
        "kind": "surrogate",
        "model": model.as_payload(),
        "meta": dict(meta or {}),
    }


def surrogate_from_record(record: dict):
    """Rebuild the :class:`repro.surrogate.SurrogateModel` a record holds."""
    from ..surrogate import SurrogateModel

    return SurrogateModel.from_payload(record["model"])


class ResultStore:
    """Directory-backed result database, one validated JSON file per key.

    Layout: ``root/<key[:2]>/<key>.json`` (two-hex-char fan-out keeps any
    single directory small at millions of records) plus ``root/quarantine/``
    for records that failed validation.  All writes are atomic; concurrent
    writers of the *same* key are idempotent (equal content), concurrent
    writers of different keys never touch the same file.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / "quarantine"

    # -- paths -----------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    # -- writes ----------------------------------------------------------------------

    def put(self, key: str, record: dict) -> StoredRecord:
        """Checksum and atomically publish one record under its key.

        The record is rendered once, into the checksummed layout the
        module docstring describes; the return value is the
        :class:`StoredRecord` a later :meth:`load` of the file yields, so
        a freshly computed answer takes the same shape as a hit.  The
        text is written in two chunks with the fault injector's
        ``checkpoint`` probe between them (fault scope ``phase="store"``):
        an armed ``crash-write`` rule aborts with half the record in the
        temp file, proving a torn write can never land under the
        committed name.
        """
        record = dict(record)
        record["key"] = key
        record.setdefault("schema", RECORD_SCHEMA_VERSION)
        if "waveforms" in record and max(record) != "waveforms":
            raise ValueError("a record's 'waveforms' field must sort last")
        data = _encode_record(record)
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = data.decode()
        mid = len(text) // 2

        def chunks():
            yield text[:mid]
            with faults.scope(phase="store"):
                faults.probe("checkpoint")
            yield text[mid:]

        atomic_write(path, chunks())
        obs_metrics.inc("repro_store_writes_total")
        return StoredRecord(*_split_record(data))

    def put_simulation(self, key: str, sim: SsnSimulation,
                       meta: dict | None = None) -> Path:
        self.put(key, simulation_record(key, sim, meta=meta))
        return self.path_for(key)

    def put_montecarlo(self, key: str, result: MonteCarloResult,
                       meta: dict | None = None) -> Path:
        self.put(key, montecarlo_record(key, result, meta=meta))
        return self.path_for(key)

    def put_surrogate(self, key: str, model, meta: dict | None = None) -> Path:
        """Persist a fitted surrogate model under its identity key."""
        self.put(key, surrogate_record(key, model, meta=meta))
        return self.path_for(key)

    # -- reads -----------------------------------------------------------------------

    def load(self, key: str) -> StoredRecord | None:
        """The validated record stored under ``key``, or None (a miss).

        Misses include: no file, undecodable head, wrong schema version,
        key mismatch (file stored under a name its content does not
        claim) and checksum mismatch (the digest at the file's prefix
        must hash the bytes after it, exactly as written).  Every invalid
        file is quarantined on the way out, so the next write of the key
        starts clean.  The waveforms are verified by the checksum but
        never decoded here.
        """
        path = self.path_for(key)
        if not path.exists():
            obs_metrics.inc("repro_store_misses_total")
            return None
        try:
            data = path.read_bytes()
            head, waveforms_json = _split_record(data)
        except (OSError, ValueError, RecursionError):
            return self._quarantine(path, "unreadable")
        if not isinstance(head, dict):
            return self._quarantine(path, "malformed")
        if head.get("schema") != RECORD_SCHEMA_VERSION:
            return self._quarantine(path, "schema")
        if head.get("key") != key:
            return self._quarantine(path, "key")
        if not _checksum_matches(data):
            return self._quarantine(path, "checksum")
        obs_metrics.inc("repro_store_hits_total")
        return StoredRecord(head, waveforms_json)

    def _decode(self, key: str, stored: StoredRecord) -> dict | None:
        """``stored`` in full; a checksum-valid file whose waveforms do not
        decode is quarantined as ``unreadable`` (returns None)."""
        try:
            return stored.decode()
        except (ValueError, RecursionError):
            return self._quarantine(self.path_for(key), "unreadable")

    def _load_kind(self, key: str, kind: str) -> dict | None:
        stored = self.load(key)
        if stored is None or stored.head.get("kind") != kind:
            return None
        return self._decode(key, stored)

    def get_simulation(self, key: str, spec: DriverBankSpec) -> SsnSimulation | None:
        record = self._load_kind(key, "simulate")
        return None if record is None else simulation_from_record(record, spec)

    def get_montecarlo(self, key: str) -> MonteCarloResult | None:
        record = self._load_kind(key, "montecarlo")
        return None if record is None else montecarlo_from_record(record)

    def get_surrogate(self, key: str):
        """The fitted surrogate model stored under ``key``, or None.

        A record that stores a different kind, or a model payload this
        version cannot rebuild (an incompatible surrogate schema), is a
        miss — the caller re-fits — never an exception.
        """
        record = self._load_kind(key, "surrogate")
        if record is None:
            return None
        try:
            return surrogate_from_record(record)
        except (KeyError, TypeError, ValueError):
            return None

    def iter_records(self, kind: str | None = None):
        """Every validated record in the store, optionally kind-filtered.

        Loads through :meth:`load`, so invalid files are quarantined on
        the way past rather than yielded.  Used by ``repro surrogate
        inspect``; result sweeps at scale should use the key-addressed
        reads instead.
        """
        for path in sorted(self.root.glob("??/*.json")):
            stored = self.load(path.stem)
            if stored is None or (kind is not None
                                  and stored.head.get("kind") != kind):
                continue
            record = self._decode(path.stem, stored)
            if record is not None:
                yield record

    # -- quarantine ------------------------------------------------------------------

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move an invalid record aside and report the miss (returns None)."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            os.replace(path, self.quarantine_dir / path.name)
        obs_metrics.inc("repro_store_quarantined_total",
                        labels={"reason": reason})
        obs_metrics.inc("repro_store_misses_total")
        obs_events.emit("store_quarantined", reason=reason, file=path.name)
        return None

    def quarantined(self) -> list[Path]:
        """Quarantined record files, for inspection and tests."""
        if not self.quarantine_dir.exists():
            return []
        return sorted(self.quarantine_dir.glob("*.json"))
