"""High-level golden SSN simulation (the "HSPICE run" of each experiment).

Wraps circuit construction, time-step selection and waveform extraction so
experiments can ask one question — "what does the real (simulated) circuit
do?" — in one call.  The peak is reported over the *full* simulated span,
like the paper's HSPICE measurements, not just over the model validity
window.

A run depends only on its call: the engine is the explicit ``engine=``
(else ``"scalar"``).  So :func:`ssn_memo_key` is just
``(spec, tstop, dt, options)``, and equal keys are equal simulations.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import math
import threading

from ..observability import metrics as obs_metrics
from ..spice.batch import BatchIncompatibleError, batch_transient, lockstep_signature
from ..spice.telemetry import SolverTelemetry
from ..spice.transient import TransientOptions, transient
from .engine import resolve_engine
from .parallel import parallel_map
from ..spice.waveform import Waveform
from .driver_bank import (
    DriverBankSpec,
    GROUND_BOUNCE_NODE,
    INDUCTOR_NAME,
    INPUT_NODE,
    OUTPUT_NODE_FMT,
    build_driver_bank,
)

#: Time-step resolution: points per input rise time.
POINTS_PER_RAMP = 400
#: And, when the network can ring, points per ringing period.
POINTS_PER_RING = 80


@dataclasses.dataclass(frozen=True)
class SsnSimulation:
    """Waveforms and summary numbers of one golden SSN run.

    Attributes:
        spec: the simulated configuration.
        ssn: ground-bounce voltage at the internal ground node.
        inductor_current: total current through the ground inductance.
        driver_current: channel current of one driver.
        input_voltage: the gate ramp.
        output_voltage: one driver's pad voltage.
        peak_voltage: maximum SSN voltage over the simulated span.
        peak_time: instant of that maximum.
        telemetry: solver counters of the underlying transient run
            (pickles across process-pool workers with the rest of the
            simulation, so parallel sweeps keep full observability).
    """

    spec: DriverBankSpec
    ssn: Waveform
    inductor_current: Waveform
    driver_current: Waveform
    input_voltage: Waveform
    output_voltage: Waveform
    peak_voltage: float
    peak_time: float
    telemetry: SolverTelemetry | None = None


def default_time_step(spec: DriverBankSpec) -> float:
    """Step fine enough for both the ramp and any LC ringing."""
    dt = spec.rise_time / POINTS_PER_RAMP
    if spec.capacitance is not None:
        ring_period = 2.0 * math.pi * math.sqrt(spec.inductance * spec.capacitance)
        dt = min(dt, ring_period / POINTS_PER_RING)
    return dt


def default_stop_time(spec: DriverBankSpec) -> float:
    """Span covering the ramp plus enough tail to catch delayed peaks."""
    tstop = 2.0 * spec.rise_time
    if spec.capacitance is not None:
        ring_period = 2.0 * math.pi * math.sqrt(spec.inductance * spec.capacitance)
        tstop = max(tstop, spec.rise_time + 1.5 * ring_period)
    if spec.input_offsets is not None:
        tstop += max(spec.input_offsets)
    return tstop


def simulate_ssn(
    spec: DriverBankSpec,
    tstop: float | None = None,
    dt: float | None = None,
    options: TransientOptions | None = None,
) -> SsnSimulation:
    """Run the golden transient simulation of one driver-bank configuration.

    Args:
        spec: circuit configuration.
        tstop: simulation span (default: :func:`default_stop_time`).
        dt: base time step (default: :func:`default_time_step`).
        options: transient-engine knobs.

    Returns:
        The :class:`SsnSimulation` with waveforms and the global SSN peak.
    """
    circuit = build_driver_bank(spec)
    result = transient(
        circuit,
        tstop if tstop is not None else default_stop_time(spec),
        dt if dt is not None else default_time_step(spec),
        options=options,
    )
    return _package_simulation(spec, result)


def _package_simulation(spec: DriverBankSpec, result) -> SsnSimulation:
    """Extract the SSN waveforms and peak from one finished transient run.

    Shared by the scalar path and the batched-ensemble path, so both
    engines report through the identical packaging.
    """
    ssn = result.voltage(GROUND_BOUNCE_NODE)
    peak_time, peak_voltage = ssn.peak()

    first_driver = spec.driver_names()[0]
    driver_current = result.current(first_driver)
    if spec.collapse and spec.input_offsets is None and spec.n_drivers > 1:
        # The collapsed device carries all N drivers' current.
        driver_current = Waveform(driver_current.t, driver_current.y / spec.n_drivers)

    input_node = INPUT_NODE if spec.input_offsets is None else f"{INPUT_NODE}1"
    return SsnSimulation(
        spec=spec,
        ssn=ssn,
        inductor_current=result.current(INDUCTOR_NAME),
        driver_current=driver_current,
        input_voltage=result.voltage(input_node),
        output_voltage=result.voltage(OUTPUT_NODE_FMT.format(index=1)),
        peak_voltage=peak_voltage,
        peak_time=peak_time,
        telemetry=result.telemetry,
    )


_DEFAULT_OPTIONS = TransientOptions()


def canonical_options(options: TransientOptions | None) -> TransientOptions | None:
    """``options``, or ``None`` when it equals the default option set.

    Every engine runs ``options or TransientOptions()``, so passing the
    defaults explicitly is the same simulation as passing none.  Both cache
    keys and the service's surrogate routing read options through here,
    so the two spellings share one key and one answer path.
    """
    return None if options == _DEFAULT_OPTIONS else options


def ssn_memo_key(
    spec: DriverBankSpec,
    tstop: float | None = None,
    dt: float | None = None,
    options: TransientOptions | None = None,
) -> tuple:
    """The exact memo key of one golden simulation request.

    Every component is a frozen dataclass or scalar, and a run depends on
    nothing else (no process-wide engine default exists),
    so equality means "the same simulation".  The persistent service
    store (:mod:`repro.service.keys`) hashes the same four inputs, with
    ``options`` canonicalized through the same :func:`canonical_options`.
    """
    return (spec, tstop, dt, canonical_options(options))


def freeze_simulation(sim: SsnSimulation) -> SsnSimulation:
    """Mark every waveform array of ``sim`` read-only, in place.

    Cached simulations are shared between all their callers; a caller
    mutating ``sim.ssn.y`` would silently corrupt every later cache hit.
    With the buffers frozen, such a write raises ``ValueError`` instead.
    Returns ``sim`` for chaining.
    """
    for wf in (sim.ssn, sim.inductor_current, sim.driver_current,
               sim.input_voltage, sim.output_voltage):
        wf.t.setflags(write=False)
        wf.y.setflags(write=False)
    return sim


class _SsnMemoCache:
    """Bounded, thread-safe LRU of frozen golden simulations.

    Replaces the former ``functools.lru_cache`` so the cache can (a) count
    hits and misses (:func:`simulate_ssn_cache_stats`) and (b) freeze every
    stored simulation's waveforms.  The simulation itself runs outside
    the lock; two threads racing on one key at worst compute it twice
    (the service layer's in-flight dedup prevents exactly that for HTTP
    traffic).
    """

    def __init__(self, maxsize: int = 256):
        self.maxsize = maxsize
        self._data: collections.OrderedDict = collections.OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def fetch(self, key) -> SsnSimulation | None:
        with self._lock:
            sim = self._data.get(key)
            if sim is None:
                return None
            self._data.move_to_end(key)
            self.hits += 1
        obs_metrics.inc("repro_ssn_memo_hits_total")
        return sim

    def insert(self, key, sim: SsnSimulation) -> None:
        with self._lock:
            self.misses += 1
            self._data[key] = sim
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        obs_metrics.inc("repro_ssn_memo_misses_total")

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


_memo = _SsnMemoCache()


def simulate_ssn_cached(
    spec: DriverBankSpec,
    tstop: float | None = None,
    dt: float | None = None,
    options: TransientOptions | None = None,
) -> SsnSimulation:
    """Memoized :func:`simulate_ssn` keyed on its arguments (:func:`ssn_memo_key`).

    Paper figures revisit the same configurations (the Fig. 3 and Fig. 4
    sweeps share their base points; ablations re-run nominal corners), so
    repeated points are free.  Every argument is a frozen dataclass (or
    scalar) and nothing outside them changes a run.  Results are shared, and their waveform arrays are frozen
    (``writeable=False``): an accidental mutation raises instead of
    silently corrupting every later cache hit.  A hit records no
    telemetry: its Newton work was recorded when it actually ran.
    """
    key = ssn_memo_key(spec, tstop, dt, options)
    sim = _memo.fetch(key)
    if sim is None:
        sim = freeze_simulation(simulate_ssn(spec, tstop, dt, options))
        _memo.insert(key, sim)
    return sim


def simulate_ssn_cache_clear() -> None:
    """Drop all memoized golden simulations (mainly for tests)."""
    _memo.clear()


def simulate_ssn_cache_stats() -> dict:
    """Memo observability: ``{"hits", "misses", "size", "maxsize"}``."""
    return {"hits": _memo.hits, "misses": _memo.misses,
            "size": len(_memo), "maxsize": _memo.maxsize}


def simulate_many(
    specs,
    max_workers: int | None = None,
    options: TransientOptions | None = None,
    engine: str | None = None,
) -> list[SsnSimulation]:
    """Golden-simulate many specs on the selected execution engine.

    Results preserve the order of ``specs`` regardless of engine or worker
    count, so sweeps are element-for-element comparable however they ran.

    ``engine`` selects the transient engine (``"scalar"``, ``"batch"`` or
    ``"auto"``; default ``"scalar"``, see
    :func:`repro.analysis.engine.resolve_engine`):

    * scalar — one :func:`transient` per spec, optionally across a process
      pool (``max_workers``); serial results are memoized via
      :func:`simulate_ssn_cached`.  Pool workers ship their metrics
      registry back with their results (see
      :func:`repro.analysis.parallel.parallel_map`), so the registry counts
      each fresh compute once, whichever process ran it.
    * batch — specs whose circuits share a lockstep signature (same
      topology and time grid, different parameter values) are simulated
      together by one vectorized Newton loop
      (:func:`repro.spice.batch.batch_transient`).  Specs that cannot join
      a lockstep group — incompatible topologies or singleton groups —
      fall back to the scalar path, so ``"batch"`` never fails where
      ``"scalar"`` succeeds.
    """
    specs = list(specs)
    resolved = resolve_engine(engine, len(specs))
    obs_metrics.inc("repro_engine_selected_total", labels={"engine": resolved})
    return simulate_on(resolved, specs, max_workers, options)


def simulate_on(engine: str, specs, max_workers: int | None = None,
                options: TransientOptions | None = None) -> list[SsnSimulation]:
    """:func:`simulate_many` on a resolved engine, for work inside a request
    that already counted its engine (campaign chunks)."""
    if engine == "batch":
        return _simulate_many_batched(specs, options)
    fn = simulate_ssn_cached if options is None else functools.partial(
        simulate_ssn_cached, options=options)
    return parallel_map(fn, specs, max_workers=max_workers)


def _simulate_many_batched(specs, options) -> list[SsnSimulation]:
    """Lockstep grouping behind the ``"batch"`` engine of :func:`simulate_many`.

    Builds every spec's circuit, groups them by (lockstep signature,
    stop time, time step), runs each group of two or more through
    :func:`batch_transient`, and routes everything else — singletons and
    incompatible circuits or options — through the scalar path.
    """
    sims: list[SsnSimulation | None] = [None] * len(specs)
    groups: dict[tuple, list[int]] = {}
    circuits: list = [None] * len(specs)
    for i, spec in enumerate(specs):
        circuit = build_driver_bank(spec)
        try:
            key = (
                lockstep_signature(circuit),
                default_stop_time(spec),
                default_time_step(spec),
            )
        except BatchIncompatibleError:
            key = ("scalar", i)
        circuits[i] = circuit
        groups.setdefault(key, []).append(i)

    for key, members in groups.items():
        ran_batched = False
        if len(members) >= 2:
            _, tstop, dt = key
            try:
                results = batch_transient(
                    [circuits[i] for i in members], tstop, dt, options=options
                )
            except BatchIncompatibleError:
                pass  # e.g. non-finite element values: scalar fallback below
            else:
                for i, result in zip(members, results):
                    sims[i] = _package_simulation(specs[i], result)
                ran_batched = True
        if not ran_batched:
            for i in members:
                sims[i] = simulate_ssn_cached(specs[i], options=options)
    return sims


def aggregate_telemetry(sims) -> SolverTelemetry:
    """Summed solver telemetry over many :class:`SsnSimulation` results."""
    return SolverTelemetry.aggregate(sim.telemetry for sim in sims)
