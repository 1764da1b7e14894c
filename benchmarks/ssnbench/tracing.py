"""Layer spans recorded from outside the program, for traced runs only.

A traced run replaces the public callables of each layer with wrappers
that record one span per call: name, start, end, parent and thread.  Each
name is patched where the caller looks it up (``repro.analysis.simulate.
transient``, not ``repro.spice.transient.transient``), and methods are
patched on their classes.  Spans stay in memory as typed arrays and are
written out once, at the end of the run.

Run as a script, this module is the traced server launcher:

    PYTHONPATH=src python benchmarks/ssnbench/tracing.py SPANS.json serve --port P --store DIR

installs the library and service wrappers, runs ``repro.cli.main`` with
the remaining arguments and writes the spans to ``SPANS.json`` when the
server stops (SIGINT).
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import sys
import threading
import time
from array import array
from typing import Callable


class SpanRecorder:
    """In-memory span store; :meth:`wrap` turns a callable into a traced one."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.thread = array("q")
        self._lock = threading.Lock()
        # A context variable, not a thread-local: asyncio.to_thread copies
        # the context, so a span opened on a worker thread still names the
        # span that caused it.
        self._current = contextvars.ContextVar("ssnbench_span", default=-1)

    def _open(self, name_id: int) -> int:
        with self._lock:
            index = len(self.start)
            self.name.append(name_id)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(self._current.get())
            self.thread.append(threading.get_ident())
        return index

    def wrap(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        current, clock = self._current, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name_id)
            token = current.set(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                current.reset(token)

        return traced

    def as_dict(self) -> dict:
        return {"names": self.names, "name": list(self.name),
                "start": list(self.start), "end": list(self.end),
                "parent": list(self.parent), "thread": list(self.thread)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.as_dict(), fh)


def install(recorder: SpanRecorder, targets) -> Callable[[], None]:
    """Patch every ``(span name, owner, attribute)``; returns the undo."""
    originals = []
    for name, owner, attr in targets:
        original = vars(owner)[attr]  # the class's own method, not an inherited one
        originals.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(name, original))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def library_targets() -> list[tuple]:
    """Spans of the simulator stack: analysis -> spice -> devices."""
    import repro.devices  # noqa: F401  (registers every MosfetModel subclass)
    from repro.analysis import montecarlo, simulate
    from repro.devices.base import MosfetModel
    from repro.spice.mna import MnaSystem
    from repro.spice.mosfet import MosfetBank

    # ``repro.spice.transient`` the attribute is the function; the module
    # is where the engine looks ``newton_solve`` up.
    transient = importlib.import_module("repro.spice.transient")

    targets = [
        ("analysis.simulate_ssn", simulate, "simulate_ssn"),
        ("analysis.simulate_many", simulate, "simulate_many"),
        ("analysis.montecarlo", montecarlo, "transient_peak_distribution"),
        ("analysis.build_driver_bank", simulate, "build_driver_bank"),
        ("spice.transient", simulate, "transient"),
        ("spice.batch_transient", simulate, "batch_transient"),
        ("spice.newton_solve", transient, "newton_solve"),
        ("spice.assemble_base", MnaSystem, "assemble_base"),
        ("spice.assemble_nonlinear", MnaSystem, "assemble_nonlinear"),
        ("devices.bank_partials", MosfetBank, "partials"),
    ]
    for cls in (MosfetModel, *_subclasses(MosfetModel)):
        if "partials" in cls.__dict__:
            targets.append(("devices.partials", cls, "partials"))
    return targets


def service_targets() -> list[tuple]:
    """Library spans plus the serving path: keys, store, surrogate, journal."""
    from repro.analysis.campaign import CampaignRunner
    from repro.observability import events
    from repro.service import server
    from repro.service.store import ResultStore
    from repro.surrogate.model import SurrogateModel
    from repro.surrogate.registry import SurrogateRegistry

    return library_targets() + [
        ("service.result_key", server, "result_key"),
        ("service.store_load", ResultStore, "load"),
        ("service.store_put", ResultStore, "put"),
        ("surrogate.lookup", SurrogateRegistry, "lookup"),
        ("surrogate.simulation", SurrogateModel, "simulation"),
        ("analysis.campaign", CampaignRunner, "run_specs"),
        ("observability.emit", events, "emit"),
    ]


def layer_times(spans: dict, thread_id: int | None = None) -> dict[str, dict]:
    """Per span name: ``{"count", "total_s", "self_s"}``.

    A span's self time is its duration minus the part of it covered by its
    children *on the same thread*: a child on another thread ran while the
    parent's thread was free to do other work.  Unfinished spans (end 0)
    are skipped; ``thread_id`` keeps only the spans of one thread.
    """
    start, end, parent, thread = (spans[k] for k in ("start", "end", "parent", "thread"))
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent):
        if p >= 0 and end[i] and thread[p] == thread[i]:
            children.setdefault(p, []).append(i)
    out: dict[str, dict] = {}
    for i, name_id in enumerate(spans["name"]):
        if not end[i] or thread_id not in (None, thread[i]):
            continue
        duration = end[i] - start[i]
        covered, reach = 0.0, start[i]
        for k in sorted(children.get(i, ()), key=start.__getitem__):
            lo, hi = max(start[k], reach), min(end[k], end[i])
            if hi > lo:
                covered += hi - lo
                reach = hi
        row = out.setdefault(spans["names"][name_id],
                             {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered
    return out


def load(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _serve_traced(spans_path: str, cli_args: list[str]) -> int:
    recorder = SpanRecorder()
    install(recorder, service_targets())
    from repro.cli import main

    try:
        return main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(_serve_traced(sys.argv[1], sys.argv[2:]))
