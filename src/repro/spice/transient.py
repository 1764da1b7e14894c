"""Transient analysis engine.

Fixed user-chosen base step with automatic halving on Newton failure and
re-growth afterwards, or (``TransientOptions(adaptive=True)``) step-doubling
truncation-error control under that step; steps always land exactly on
source breakpoints (ramp corners) and on ``tstop``.  Integration is
trapezoidal by default with a backward-Euler first step after t=0 (no
consistent history exists yet), which is the standard SPICE ``UIC``
start-up.

One time loop serves both stepping modes, as in SPICE3's ``DCtran``: each
accepted step is reached through *attempts* — a fixed attempt is one solve
on the committed states with error 0, an adaptive one the step-doubling
triplet with its :func:`lte_norm` — and the next step comes from
:func:`fixed_step_regrow` or :func:`lte_regrow`.

Every accepted step records all node voltages and all element currents, so
results expose full waveforms by name.  Samples land in preallocated
capacity-doubling buffers (no per-step array allocation), and every Newton
solve runs the cached-assembly path of :mod:`repro.spice.solver`.

Robustness & observability: a Newton failure (non-convergence or a
non-finite iterate) *rejects* the step — committed state is untouched — and
the engine retries at half the step, halving repeatedly down to
``TransientOptions.min_dt`` (default ``dt / 4096``) before giving up.  Every
run carries a :class:`~repro.spice.telemetry.SolverTelemetry` record on
``TransientResult.telemetry`` counting iterations, rejections/retries,
cache activity and per-phase wall clock; an unrecoverable failure raises
``ConvergenceError`` with the partial record attached as ``.telemetry``.

Step control is written once, as the pure functions of the "step control"
section below; the batched engine (:mod:`repro.spice.batch`) calls the
same functions on per-instance arrays.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import time

import numpy as np

from ..observability import trace
from .circuit import Circuit
from .mna import MnaSystem
from .solver import ConvergenceError, newton_solve
from .telemetry import SolverTelemetry, record_backend, record_session
from .waveform import Waveform

#: Refuse to shrink the step below base_dt / _MIN_STEP_DIVISOR.
_MIN_STEP_DIVISOR = 4096.0

#: Smallest LTE error fed to the step ratio: an exact step (err = 0) then
#: gets a huge finite ratio that every caller caps, not a division by zero.
_TINY_ERR = float(np.finfo(float).tiny)


@dataclasses.dataclass(frozen=True)
class TransientOptions:
    """Engine knobs.

    Attributes:
        method: "trap" (default) or "be" companion integration.
        gmin: shunt conductance across nonlinear devices.
        max_newton: Newton iteration budget per step.
        abstol: Newton absolute tolerance.
        reltol: Newton relative tolerance.
        adaptive: enable local-truncation-error step control via step
            doubling (one full step vs two half steps).  The ``dt``
            argument of :func:`transient` then acts as the *maximum* step;
            the engine shrinks and regrows within it.
        lte_rtol: relative LTE tolerance per accepted step (adaptive only).
        lte_atol: absolute LTE tolerance in volts/amperes (adaptive only).
        max_growth: largest per-step enlargement factor (adaptive only).
        min_dt: absolute floor for the Newton-failure recovery ladder (and
            the adaptive controller); ``None`` (default) keeps the seed
            behavior of ``dt / 4096``.  A rejection that would need a step
            below this floor is unrecoverable and raises.
    """

    method: str = "trap"
    gmin: float = 1e-12
    max_newton: int = 100
    abstol: float = 1e-9
    reltol: float = 1e-6
    adaptive: bool = False
    lte_rtol: float = 1e-3
    lte_atol: float = 1e-6
    max_growth: float = 2.0
    min_dt: float | None = None

    def __post_init__(self):
        if self.method not in ("trap", "be"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if not isinstance(self.adaptive, bool):
            raise ValueError(f"adaptive must be a bool, not {self.adaptive!r}")
        if (not isinstance(self.max_newton, numbers.Integral)
                or isinstance(self.max_newton, bool)):
            raise ValueError(f"max_newton must be an int, not {self.max_newton!r}")
        if self.max_newton < 1:
            raise ValueError("max_newton must be at least 1")
        for name in ("gmin", "abstol", "reltol", "lte_rtol", "lte_atol",
                     "max_growth", "min_dt"):
            value = getattr(self, name)
            if name == "min_dt" and value is None:
                continue
            if not _is_finite_real(value):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if self.gmin < 0:
            raise ValueError("gmin must be non-negative")
        if self.abstol <= 0 or self.reltol <= 0:
            raise ValueError("Newton tolerances must be positive")
        if self.lte_rtol <= 0 or self.lte_atol <= 0:
            raise ValueError("LTE tolerances must be positive")
        if self.max_growth <= 1.0:
            raise ValueError("max_growth must exceed 1")
        if self.min_dt is not None and self.min_dt <= 0:
            raise ValueError("min_dt must be positive when given")


def _is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


def check_time_span(tstart: float, tstop: float, dt: float) -> None:
    """Refuse a time span no engine can walk: one check for every engine.

    NaN passes every ``<=`` comparison and an infinite ``tstop`` or NaN
    ``dt`` never lets a stepping loop finish, so finiteness is checked
    before the ordering.
    """
    for name, value in (("tstart", tstart), ("tstop", tstop), ("dt", dt)):
        if not _is_finite_real(value):
            raise ValueError(f"{name} must be a finite number, not {value!r}")
    if tstop <= tstart:
        raise ValueError("tstop must be greater than tstart")
    if dt <= 0:
        raise ValueError("dt must be positive")


# -- step control ------------------------------------------------------------------
#
# Every step-control decision of the transient drivers, written once.  The
# scalar engine passes floats; the batched engine passes (B,) arrays, one
# lane per instance, and gets per lane the same IEEE result (the idiom of
# ``elements._by_phase``).  Floats stay Python floats: a numpy scalar step
# would flow into every element stamp and slow the scalar engine down.


def _minimum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return min(a, b)


def _maximum(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.maximum(a, b)
    return max(a, b)


def breakpoints_between(circuit: Circuit, tstart: float, tstop: float) -> list:
    """The source breakpoints inside ``(tstart, tstop)``, then ``tstop``."""
    return [b for b in circuit.breakpoints() if tstart < b < tstop] + [tstop]


def clamp_step(h, t, next_bp):
    """The step ``h`` from ``t``, cut short to land on ``next_bp``."""
    return _minimum(h, next_bp - t)


def landed(t, bp):
    """Whether time ``t`` has reached breakpoint ``bp``."""
    return (abs(t - bp) < 1e-21) | (t >= bp)


def min_step(opts: TransientOptions, dt: float) -> float:
    """The floor of the Newton-failure ladder and the LTE controller."""
    return opts.min_dt if opts.min_dt is not None else dt / _MIN_STEP_DIVISOR


def halve_step(h, min_h):
    """The retry step after a Newton failure, and whether it is below the
    floor (the failure is then unrecoverable)."""
    h = h / 2.0
    return h, h < min_h


def fixed_step_regrow(h, dt):
    """The fixed-step driver's next step: double back up towards ``dt``."""
    return _minimum(dt, 2.0 * h)


def lte_norm(x_coarse, x_fine, nn: int, opts: TransientOptions):
    """Step-doubling error in units of the tolerance: the max-norm over
    the ``nn`` node voltages of the last axis (0 when there are none)."""
    scale = opts.lte_atol + opts.lte_rtol * np.abs(x_fine[..., :nn])
    err = np.max(np.abs(x_coarse[..., :nn] - x_fine[..., :nn]) / scale,
                 axis=-1, initial=0.0)
    return err if err.ndim else float(err)


def _lte_ratio(err):
    """The third-order step ratio ``0.9 * err^(-1/3)``, floored at 0.25."""
    return _maximum(0.9 * _maximum(err, _TINY_ERR) ** (-1.0 / 3.0), 0.25)


def lte_shrink(h, err, min_h):
    """The retry step after an LTE rejection, and whether it sits at the
    floor ``min_h`` (the step is then accepted rather than stall)."""
    h = _maximum(h * _lte_ratio(err), min_h)
    return h, h <= min_h


def lte_regrow(h, err, dt, opts: TransientOptions):
    """The adaptive driver's next step after an accepted one."""
    return _minimum(dt, h * _minimum(_lte_ratio(err), opts.max_growth))


class TransientResult:
    """Waveforms of one transient run, addressable by node/element name.

    ``telemetry`` carries the run's solver counters (Newton iterations,
    step rejections/retries, cache activity, per-phase wall clock); a run
    that produced a result always has ``telemetry.unrecovered_failures == 0``.
    """

    def __init__(self, circuit: Circuit, times: np.ndarray,
                 node_samples: np.ndarray, current_samples: dict[str, np.ndarray],
                 telemetry: SolverTelemetry | None = None):
        self._circuit = circuit
        self.times = times
        self._nodes = node_samples  # shape (n_steps, n_nodes-1)
        self._currents = current_samples
        self.telemetry = telemetry if telemetry is not None else SolverTelemetry()

    def voltage(self, node_name: str) -> Waveform:
        """Waveform of a node voltage."""
        node = self._circuit.node_id(node_name)
        if node == 0:
            return Waveform(self.times, np.zeros_like(self.times))
        return Waveform(self.times, self._nodes[:, node - 1])

    def current(self, element_name: str) -> Waveform:
        """Waveform of an element current (first node -> second node)."""
        if element_name not in self._currents:
            known = ", ".join(sorted(self._currents))
            raise KeyError(f"no recorded current for {element_name!r}; have: {known}")
        return Waveform(self.times, self._currents[element_name])

    @property
    def node_names(self) -> list[str]:
        return [n for n in self._circuit.node_names if n != "0"]


class _SampleRecorder:
    """Capacity-doubling sample buffers for one transient run.

    Replaces the seed's per-step ``list.append(np.array(...))`` pattern: one
    time vector, one (steps, nodes) voltage block and one (steps, elements)
    current block, grown geometrically and trimmed once at the end.
    """

    def __init__(self, num_nodes: int, current_names: list[str], capacity: int = 256):
        self._n = 0
        self._times = np.empty(capacity)
        self._nodes = np.empty((capacity, num_nodes))
        self._names = current_names
        self._currents = np.empty((capacity, len(current_names)))

    def _grow(self) -> None:
        cap = 2 * len(self._times)
        self._times = np.resize(self._times, cap)
        self._nodes = np.resize(self._nodes, (cap, self._nodes.shape[1]))
        self._currents = np.resize(self._currents, (cap, self._currents.shape[1]))

    def append(self, t: float, node_x: np.ndarray, currents: list[float]) -> None:
        if self._n == len(self._times):
            self._grow()
        i = self._n
        self._times[i] = t
        self._nodes[i, :] = node_x
        self._currents[i, :] = currents
        self._n += 1

    def finish(self) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        n = self._n
        currents = {
            name: np.array(self._currents[:n, j]) for j, name in enumerate(self._names)
        }
        return np.array(self._times[:n]), np.array(self._nodes[:n, :]), currents


def transient(
    circuit: Circuit,
    tstop: float,
    dt: float,
    tstart: float = 0.0,
    options: TransientOptions | None = None,
) -> TransientResult:
    """Run a transient analysis.

    Args:
        circuit: the netlist to simulate (not mutated).
        tstop: end time in seconds.
        dt: base time step in seconds; the engine may locally shrink it to
            land on breakpoints or to recover Newton convergence.
        tstart: start time (sources are evaluated from here).
        options: engine knobs; defaults are fine for the SSN circuits.

    Returns:
        A :class:`TransientResult` with node-voltage and element-current
        waveforms sampled at every accepted step (including t = tstart).
    """
    check_time_span(tstart, tstop, dt)
    opts = options or TransientOptions()

    system = MnaSystem(circuit)
    states: dict = {}
    tel = SolverTelemetry()
    record_backend(tel, "dense_lu")
    wall_start = time.perf_counter()

    with trace.span("transient", tstop=tstop, dt=dt, adaptive=opts.adaptive,
                    method=opts.method) as tsp:
        # The engine owns the integrator phase: backward Euler on the first
        # step after t=0 and after every breakpoint (no consistent companion
        # history exists there), opts.method otherwise.
        first_step = True

        # t=0 consistency solve: capacitors forced to their ICs, inductors to
        # theirs.  Its context also records the t=0 currents, through the
        # first step's backward-Euler companions.
        with trace.span("ic") as ic_sp:
            try:
                x, ctx = newton_solve(
                    system, "ic", tstart, dt=dt, method="be", states=states,
                    x0=np.zeros(system.size), gmin=max(opts.gmin, 1e-9),
                    max_iter=opts.max_newton, abstol=opts.abstol, reltol=opts.reltol,
                    telemetry=tel,
                )
            except ConvergenceError as exc:
                _fail(exc, tel, wall_start)
        # Single timing source: the span's monotonic clock when tracing is
        # on, the seed's perf-counter anchor otherwise (trace.elapsed).
        tel.add_phase_seconds("ic", trace.elapsed(ic_sp, wall_start))
        for el in circuit.elements:
            el.init_state(ctx)

        nn = system.num_node_unknowns
        measured = [el for el in circuit.elements if hasattr(el, "current")]
        recorder = _SampleRecorder(nn, [el.name for el in measured])
        # Element currents at t=0 come from the IC context (capacitor companion
        # models are undefined before the first step, so record zeros there).
        recorder.append(tstart, x[:nn], [_safe_current(el, ctx) for el in measured])

        t = tstart
        h = dt
        bp_iter = iter(breakpoints_between(circuit, tstart, tstop))
        next_bp = next(bp_iter)
        min_h = min_step(opts, dt)
        stepping_start = time.perf_counter()

        def solve_step(step_states, x0, t_target, h_target, method):
            return newton_solve(
                system, "tran", t_target, dt=h_target, method=method,
                states=step_states, x0=x0, gmin=opts.gmin,
                max_iter=opts.max_newton, abstol=opts.abstol, reltol=opts.reltol,
                telemetry=tel,
            )

        def commit_all(ctx):
            for el in circuit.elements:
                el.commit(ctx)

        # Each element and whether it is measured, in circuit order (the
        # order of ``measured``).
        passes = [(el, hasattr(el, "current")) for el in circuit.elements]

        def commit_and_record(ctx):
            """Commit every element's state in one pass and return the
            step's currents: a commit that computes its element's current
            returns it (what ``current`` reads before the commit), the
            other measured elements are read.  No current reads another
            element's state, so reading after the earlier commits is
            reading before all of them."""
            currents = []
            for el, is_measured in passes:
                i = el.commit(ctx)
                if is_measured:
                    currents.append(el.current(ctx) if i is None else i)
            return currents

        def snapshot():
            return {el: dict(state) for el, state in states.items()}

        def attempt(h_step, method):
            """One try at the step from ``(t, x, states)``: the solution, its
            context, the states it commits into, and its LTE in units of the
            tolerance.  A fixed step is one solve on the committed states
            with no error estimate; an adaptive one is step doubling — one
            h step vs two h/2 steps, whose gap estimates the local
            truncation error of the coarse step."""
            if not opts.adaptive:
                x_new, step_ctx = solve_step(states, x, t + h_step, h_step, method)
                return x_new, step_ctx, states, 0.0
            x_big, _ = solve_step(snapshot(), x, t + h_step, h_step, method)
            half_states = snapshot()
            x_mid, ctx_mid = solve_step(half_states, x, t + h_step / 2,
                                        h_step / 2, method)
            commit_all(ctx_mid)
            # The mid-point commit is companion history, so the second half
            # step runs opts.method.
            x_new, step_ctx = solve_step(half_states, x_mid, t + h_step,
                                         h_step / 2, opts.method)
            return x_new, step_ctx, half_states, lte_norm(x_big, x_new, nn, opts)

        def reject(exc, h_step):
            # Rejected step: committed state is untouched, so the retry at
            # half the step restarts from clean history.
            tel.step_rejections += 1
            h_step, unrecoverable = halve_step(h_step, min_h)
            if unrecoverable:
                _fail(exc, tel, wall_start, stepping_start)
            tel.step_retries += 1
            return h_step

        with trace.span("stepping") as step_sp:
            while not landed(t, tstop):
                h_step = clamp_step(h, t, next_bp)
                method = "be" if first_step else opts.method
                while True:
                    try:
                        x_new, step_ctx, step_states, err = attempt(h_step, method)
                    except ConvergenceError as exc:
                        h_step = reject(exc, h_step)
                        continue
                    if err <= 1.0:
                        break
                    tel.lte_rejections += 1
                    h_step, at_floor = lte_shrink(h_step, err, min_h)
                    if at_floor:
                        # Accept at the floor rather than stall.  Known
                        # defect: x_new was solved at the larger step
                        # (tests/test_spice_adaptive.py::TestAcceptAtFloor).
                        break
                # Commit state and record the step's currents in one pass
                # (a commit returns the current it computed from the
                # pre-step state).
                step_currents = commit_and_record(step_ctx)
                states = step_states
                if opts.adaptive:
                    grown = lte_regrow(h_step, err, dt, opts)
                else:
                    grown = fixed_step_regrow(h_step, dt)

                t += h_step
                x = x_new
                first_step = False
                tel.accepted_steps += 1
                recorder.append(t, x[:nn], step_currents)

                if landed(t, next_bp):
                    # Source slope discontinuity: restart the integrator with a
                    # backward-Euler step, or the trapezoidal companion rings
                    # (i_new = -i_prev) on any element sitting across the corner.
                    first_step = True
                    next_bp = next(bp_iter, tstop)
                h = grown
            step_sp.set_attribute("accepted_steps", tel.accepted_steps)

        times, node_samples, currents = recorder.finish()
        tel.add_phase_seconds("stepping", trace.elapsed(step_sp, stepping_start))
    tel.add_phase_seconds("total", trace.elapsed(tsp, wall_start))
    record_session(tel)
    return TransientResult(circuit, times, node_samples, currents, telemetry=tel)


def _fail(exc: ConvergenceError, tel: SolverTelemetry, wall_start: float,
          stepping_start: float | None = None) -> None:
    """Mark a run unrecoverable and re-raise with its telemetry attached."""
    now = time.perf_counter()
    tel.unrecovered_failures += 1
    if stepping_start is not None:
        tel.add_phase_seconds("stepping", now - stepping_start)
    tel.add_phase_seconds("total", now - wall_start)
    record_session(tel)
    exc.telemetry = tel
    raise exc


def _safe_current(element, ctx) -> float:
    """Element current at the t = 0 sample, tolerating elements whose
    current is undefined there.

    Expected gaps only: a companion model asked for state it does not have
    yet (``KeyError``, a capacitor at the IC sample) or an element family
    without the queried accessor/state machinery (``AttributeError``).
    Anything else — sign errors, bad indexing, model bugs — propagates, so
    real stamping defects surface instead of silently recording 0.0 A.
    Accepted steps record through their commit pass instead.
    """
    try:
        return float(element.current(ctx))
    except (KeyError, AttributeError):
        return 0.0
