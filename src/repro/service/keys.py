"""Content-addressed result keys for the persistent SSN store.

One golden simulation is exactly determined by three things: the frozen
circuit spec, the resolved time grid, and the transient-option set.
Nothing else changes a run: the engine is an explicit argument (else
scalar).
:func:`result_key` hashes a canonical JSON rendering of the three into a
hex fingerprint; equal keys mean "bit-identical simulation", so the store
can serve a repeat query without re-entering the Newton loop.

The in-process memo (:func:`repro.analysis.simulate.ssn_memo_key`) keys on
the same inputs through the same :func:`canonical_options`, so the two
cache tiers share one key contract.  Floats are rendered with :func:`repr`
(the shortest exact round trip), dataclasses with their deterministic
``repr``; the digest is SHA-256, never truncated — keys are the full
64 hex characters.

Scheme 2 dropped the compiled-kernel entry from the backend snapshot and
the retired seed-engine flag from the ``TransientOptions`` repr; scheme 3
dropped the backend snapshot itself.  Scheme 4 retired the sparse
linear-algebra tier and its ``TransientOptions.sparse`` field: a scheme-3
record of a default-options request may come from a sparse ``splu`` run
(large non-collapsed banks engaged it), which is not bit-identical to
today's dense run.  Records stored under an older scheme stay on disk and
load, but no scheme-4 request hashes to their keys, so they are never
served.  Surrogate keys name a slot, not a run,
and keep their scheme-2 payload, so a refit still overwrites its
predecessor in place.
"""

from __future__ import annotations

import hashlib
import json

from ..analysis.driver_bank import DriverBankSpec
from ..analysis.simulate import canonical_options, default_stop_time, default_time_step
from ..spice.transient import TransientOptions

#: Bumped whenever the canonical payload layout changes; part of the hash,
#: so a scheme change invalidates every previously stored key at once.
KEY_SCHEME_VERSION = 4


def canonical_request(
    spec: DriverBankSpec,
    tstop: float | None = None,
    dt: float | None = None,
    options: TransientOptions | None = None,
    kind: str = "simulate",
    extra: dict | None = None,
) -> dict:
    """The canonical JSON-able payload :func:`result_key` hashes.

    ``tstop``/``dt`` are resolved to their spec-derived defaults and
    ``options`` equal to ``TransientOptions()`` to ``None`` before
    rendering, so "defaulted" and "explicitly passed the default value"
    spell the same key.  ``extra`` carries workload parameters beyond one
    transient run (Monte Carlo trial count and seed, sweep identity);
    its values must be JSON-serializable.
    """
    return {
        "scheme": KEY_SCHEME_VERSION,
        "kind": str(kind),
        "spec": repr(spec),
        "tstop": repr(default_stop_time(spec) if tstop is None else float(tstop)),
        "dt": repr(default_time_step(spec) if dt is None else float(dt)),
        "options": repr(canonical_options(options)),
        "extra": dict(sorted((extra or {}).items())),
    }


def result_key(
    spec: DriverBankSpec,
    tstop: float | None = None,
    dt: float | None = None,
    options: TransientOptions | None = None,
    kind: str = "simulate",
    extra: dict | None = None,
) -> str:
    """64-hex-char content fingerprint of one analysis request."""
    payload = canonical_request(spec, tstop, dt, options, kind=kind, extra=extra)
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()


def surrogate_key(technology: str, topology: str, operating_region: str) -> str:
    """Deterministic store key of one fitted surrogate model.

    Unlike result keys, surrogate keys are *identity* keys — they name the
    (technology, topology signature, operating region) slot, not the
    fitted content — so the serving layer can probe the store for a warm
    model without enumerating the directory, and a re-fit overwrites its
    predecessor in place.
    """
    payload = {
        "scheme": 2,  # frozen: identity keys must not move with result keys
        "kind": "surrogate",
        "technology": str(technology),
        "topology": str(topology),
        "region": str(operating_region),
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    )
    return digest.hexdigest()
