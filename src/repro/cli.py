"""Command-line interface: ``python -m repro <command>``.

Seven commands cover the library's day-to-day uses:

* ``fit``       — characterize a process: print the fitted ASDM (and
  baseline) parameters for a technology card.
* ``estimate``  — one-shot peak-SSN estimate for a configuration, with the
  damping region and the applicable Table 1 case.
* ``plan``      — the design helpers: how a bus can meet a noise budget
  (max simultaneous drivers / slower edges / more pads / skewing).
* ``report``    — run a paper experiment and print its report (the same
  artifacts the benchmark harness regenerates).
* ``sweep``     — golden-simulate one knob sweep (driver count, ground
  inductance, ground capacitance or rise time) against the ASDM estimate.
* ``montecarlo``— golden transient Monte Carlo under device variation.
* ``simulate``  — golden-simulate a list of driver counts and print peaks.
* ``serve``     — the SSN service (:mod:`repro.service`): an async HTTP
  front end answering simulate/sweep/montecarlo queries from the
  persistent content-addressed result store, deduplicating identical
  in-flight requests and dispatching misses onto the campaign runner.
* ``status``    — operational health: fetch a running server's
  ``/statusz`` snapshot (``--url``), or summarize a store directory and
  its durable event journal offline (``--store``/``--events``).
* ``events``    — inspect durable event journals: ``events tail`` prints
  the most recent entries, ``events summarize`` the per-name counts.
* ``surrogate`` — fit and inspect the microsecond surrogate tier
  (:mod:`repro.surrogate`): ``surrogate fit`` characterizes a technology
  over a parameter box and persists the fitted model (with validity
  region and error bounds) into the result store; ``surrogate inspect``
  lists the store's fitted models.  ``serve`` answers in-region
  ``/simulate`` requests from them.

``sweep``/``montecarlo``/``simulate`` and ``surrogate fit`` take
``--engine``; nothing else picks an engine, so a command runs the same
way in every environment.

``sweep``/``montecarlo``/``simulate`` run *campaigns* — long multi-simulation workloads — through
the fault-tolerant runner (:mod:`repro.analysis.campaign`): they accept
``--checkpoint PATH`` (journal completed chunks atomically), ``--resume``
(replay the journal and run only what's missing, bit-identical to an
uninterrupted run), ``--max-retries``/``--deadline`` (per-chunk retry
budget and per-task wall-clock limit) plus ``--chunk-size``/``--workers``.
``serve`` takes the same four runner flags for its dispatched misses.

Every command additionally accepts ``--telemetry`` (print aggregated solver
counters — Newton iterations, step rejections/retries, LU-cache activity,
campaign recoveries, unrecovered failures — after the command's output) and
``--telemetry-json PATH`` (write the same counters as a machine-readable
run summary, atomically, so harnesses can assert "0 unrecovered failures,
N retries" instead of just not-crashing).

Observability (:mod:`repro.observability`) rides on the same parent parser:
``--trace PATH`` records a hierarchical span tree and writes it as Chrome
trace-event JSON (open in ``chrome://tracing`` / Perfetto, or summarize
with ``repro trace summarize PATH``), ``--trace-detail`` picks the span
granularity (phase/newton/full), ``--trace-sample`` head-samples root
spans, and ``--metrics PATH`` exports the metrics registry's counters and
histograms as Prometheus text.  ``--telemetry``/``--telemetry-json`` read
the same registry (:meth:`~repro.spice.telemetry.SolverTelemetry.from_registry`).
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys

from .analysis.campaign import CampaignConfig, CampaignRunner
from .analysis.driver_bank import DriverBankSpec
from .analysis.engine import ENGINES
from .analysis.sweeps import KNOBS
from .observability import atomic_write_json, summarize_trace_file
from .observability import events as obs_events
from .observability import metrics as obs_metrics
from .observability import trace as obs_trace
from .observability.export import write_chrome_trace, write_prometheus
from .observability.trace import DETAIL_LEVELS
from .spice.telemetry import SolverTelemetry

from .core.design import (
    max_simultaneous_drivers,
    required_ground_pads,
    required_rise_time,
    skew_schedule,
)
from .core.ssn_inductive import InductiveSsnModel
from .core.ssn_lc import LcSsnModel
from .process.library import list_technologies

#: report-command registry: name -> experiment module under
#: :mod:`repro.experiments`, imported only when its report runs, so no
#: other command pays for the experiment stack.
_EXPERIMENTS = {
    "fig1": "fig1_iv_fit",
    "fig2": "fig2_waveforms",
    "fig3": "fig3_model_comparison",
    "fig4": "fig4_capacitance",
    "table1": "table1_formulas",
    "processes": "processes",
    "damping": "damping_map",
    "power-rail": "power_rail",
    "coupling": "mutual_coupling",
    "impedance": "impedance",
    "patterns": "pattern_statistics",
    "delay": "delay_degradation",
    "cap-sweep": "capacitance_sweep",
    "temperature": "temperature",
    "skew": "skew",
    "realistic-input": "realistic_input",
    "ablations": "ablations",
}


def _add_tech_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tech",
        default="tsmc018",
        choices=list_technologies(),
        help="technology card (default: tsmc018)",
    )


def _at_least(minimum: int):
    """An argparse ``type``: an int no smaller than ``minimum``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _spread(text: str) -> float:
    """An argparse ``type``: a finite, non-negative sigma."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite non-negative sigma, got {text}")
    return value


_spread.__name__ = "float"


def _duration(text: str) -> float:
    """An argparse ``type``: a finite, positive number of seconds."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(
            f"must be a finite positive number of seconds, got {text}")
    return value


_duration.__name__ = "float"


def _fraction(text: str) -> float:
    """An argparse ``type``: a probability or fraction in ``[0, 1]``."""
    value = float(text)
    if not 0.0 <= value <= 1.0:  # NaN fails both comparisons
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


_fraction.__name__ = "float"


def _port(text: str) -> int:
    """An argparse ``type``: a TCP port, 0 (ephemeral) to 65535."""
    value = int(text)
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(
            f"must be a port in [0, 65535], got {value}")
    return value


_port.__name__ = "int"


def _telemetry_parent() -> argparse.ArgumentParser:
    """Shared ``--telemetry``/``--telemetry-json`` and observability flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--telemetry", action="store_true",
        help="print aggregated solver telemetry after the command output",
    )
    parent.add_argument(
        "--telemetry-json", metavar="PATH", default=None,
        help="write the solver-telemetry run summary as JSON to PATH",
    )
    parent.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record hierarchical run tracing and write a Chrome "
        "trace-event JSON to PATH (view in chrome://tracing or Perfetto, "
        "or print with 'repro trace summarize PATH')",
    )
    parent.add_argument(
        "--trace-detail", choices=list(DETAIL_LEVELS), default="newton",
        help="span granularity: 'phase' = campaign/analysis phases only, "
        "'newton' adds one span per Newton solve, 'full' adds per-iteration "
        "assembly/LU spans (default: newton)",
    )
    parent.add_argument(
        "--trace-sample", type=_fraction, default=1.0, metavar="P",
        help="record each root span with probability P in [0, 1]; children "
        "inherit the root's decision, so sampled traces stay whole trees "
        "(default: 1.0)",
    )
    parent.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="collect session metrics (per-run Newton-iteration and "
        "phase-time histograms; solver, engine and retry counters) and "
        "write Prometheus text to PATH",
    )
    return parent


def _add_engine_argument(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--engine", choices=list(ENGINES), default=default,
        help="transient engine for golden simulations: 'batch' runs "
        "same-topology ensembles in one vectorized Newton loop, 'scalar' "
        "simulates them one at a time, 'auto' picks per workload "
        f"(default: {default})",
    )


def _spec_parent() -> argparse.ArgumentParser:
    """Shared ground-path and edge flags of the commands that build a bank."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("-l", "--inductance", type=float, default=5e-9,
                        help="ground inductance in henries (default 5e-9)")
    parent.add_argument("-c", "--capacitance", type=float, default=None,
                        help="ground capacitance in farads (default: none -> Eqn 7)")
    parent.add_argument("-t", "--rise-time", type=float, default=0.5e-9,
                        help="input rise time in seconds (default 0.5e-9)")
    return parent


def _spec(args, technology, n: int) -> DriverBankSpec:
    """The ``n``-driver bank behind the ``-l``/``-c``/``-t`` ground path."""
    return DriverBankSpec(
        technology=technology, n_drivers=n, inductance=args.inductance,
        rise_time=args.rise_time, capacitance=args.capacitance,
    )


def _runner_parent() -> argparse.ArgumentParser:
    """Shared runner flags: retry ladder, deadline, chunking, pool width."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--max-retries", type=_at_least(0), default=2, metavar="N",
        help="re-attempts per chunk (and per recovery rung) after the first "
        "failure (default 2)",
    )
    parent.add_argument(
        "--deadline", type=_duration, default=None, metavar="SECONDS",
        help="per-task wall-clock budget; an attempt exceeding it counts as "
        "failed and enters the retry/degradation ladder (default: none)",
    )
    parent.add_argument(
        "--chunk-size", type=_at_least(1), default=8, metavar="N",
        help="simulations per journaled chunk (default 8)",
    )
    parent.add_argument(
        "--workers", type=_at_least(0), default=None, metavar="N",
        help="process-pool width for scalar-engine chunks (default: "
        "$REPRO_MAX_WORKERS, else serial; 0 = one per CPU)",
    )
    return parent


def _campaign_parent() -> argparse.ArgumentParser:
    """Engine and checkpoint flags the campaign commands add to the runner flags."""
    parent = argparse.ArgumentParser(add_help=False)
    _add_engine_argument(parent, "scalar")
    parent.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="journal completed chunks to PATH (atomic JSONL); a crashed or "
        "interrupted run can be finished with --resume",
    )
    parent.add_argument(
        "--resume", action="store_true",
        help="replay the --checkpoint journal and run only missing chunks; "
        "results are bit-identical to an uninterrupted run",
    )
    return parent


def _campaign_config(args) -> CampaignConfig:
    return CampaignConfig(
        checkpoint=args.checkpoint,
        resume=args.resume,
        chunk_size=args.chunk_size,
        max_retries=args.max_retries,
        deadline=args.deadline,
        max_workers=args.workers,
        engine=args.engine,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSN estimation via application-specific device modeling "
        "(Ding & Mazumder, DATE 2002).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    telemetry_parent = _telemetry_parent()
    spec_parent = _spec_parent()
    runner_parent = _runner_parent()
    _parent = {"parents": [telemetry_parent]}
    _campaign = {"parents": [telemetry_parent, spec_parent, runner_parent,
                             _campaign_parent()]}

    fit = sub.add_parser("fit", help="fit ASDM and baseline models to a process",
                         **_parent)
    _add_tech_argument(fit)
    fit.add_argument("--strength", type=float, default=1.0,
                     help="driver width as a multiple of the reference (default 1)")

    est = sub.add_parser("estimate", help="peak-SSN estimate for one configuration",
                         parents=[telemetry_parent, spec_parent])
    _add_tech_argument(est)
    est.add_argument("-n", "--drivers", type=int, required=True,
                     help="simultaneously switching drivers")
    est.add_argument("--gate-csv", default=None,
                     help="CSV of a measured gate waveform (t,y columns); "
                     "adds a PWL-drive estimate fed that waveform")

    plan = sub.add_parser("plan", help="design a bus against a noise budget",
                          **_parent)
    _add_tech_argument(plan)
    plan.add_argument("-b", "--budget", type=float, required=True,
                      help="peak-SSN budget in volts")
    plan.add_argument("-w", "--bus-width", type=int, required=True,
                      help="total bus width in drivers")
    plan.add_argument("-l", "--inductance", type=float, default=5e-9)
    plan.add_argument("-c", "--pin-capacitance", type=float, default=1e-12)
    plan.add_argument("-t", "--rise-time", type=float, default=0.5e-9)

    report = sub.add_parser("report", help="run a paper experiment and print its report",
                            **_parent)
    _add_tech_argument(report)
    report.add_argument("experiment", choices=sorted(_EXPERIMENTS) + ["all"])

    swp = sub.add_parser(
        "sweep", help="golden-simulate a knob sweep vs the ASDM estimate",
        **_campaign)
    _add_tech_argument(swp)
    swp.add_argument("--knob", choices=sorted(KNOBS), default="n_drivers",
                     help="quantity to sweep; the other flags set the base "
                     "point (default n_drivers)")
    swp.add_argument("--values", required=True,
                     help="comma-separated knob values (e.g. 1,2,4,8)")
    swp.add_argument("-n", "--drivers", type=int, default=4,
                     help="base driver count (default 4)")
    swp.add_argument("--csv", metavar="PATH", default=None,
                     help="also write the sweep as CSV to PATH")

    mc = sub.add_parser(
        "montecarlo", help="golden transient Monte Carlo under device variation",
        **_campaign)
    _add_tech_argument(mc)
    mc.add_argument("-n", "--drivers", type=int, required=True,
                    help="simultaneously switching drivers")
    mc.add_argument("--trials", type=int, default=64,
                    help="Monte Carlo draws (default 64)")
    mc.add_argument("--seed", type=_at_least(0), default=0,
                    help="RNG seed; draws are fixed up front (default 0)")
    mc.add_argument("--vth-sigma", type=_spread, default=None,
                    help="threshold 1-sigma in volts (default: DeviceSpread)")
    mc.add_argument("--mu-sigma", type=_spread, default=None,
                    help="mobility lognormal sigma (default: DeviceSpread)")

    sim = sub.add_parser(
        "simulate", help="golden-simulate driver counts and print SSN peaks",
        **_campaign)
    _add_tech_argument(sim)
    sim.add_argument("-n", "--drivers", required=True,
                     help="comma-separated driver counts (e.g. 2,4,8)")

    srv = sub.add_parser(
        "serve",
        help="serve simulate/sweep/montecarlo over HTTP from the "
        "persistent result store",
        parents=[telemetry_parent, runner_parent],
    )
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=_port, default=8431,
                     help="bind port; 0 picks an ephemeral port and prints "
                     "it (default 8431)")
    srv.add_argument("--store", metavar="DIR", default=".repro_store",
                     help="result-database directory (default .repro_store)")
    srv.add_argument("--no-surrogate", action="store_true",
                     help="disable surrogate-first answering (every "
                     "/simulate goes through the exact store/dispatch path)")
    srv.add_argument("--no-refine", action="store_true",
                     help="skip the background golden refinement behind "
                     "surrogate answers")
    srv.add_argument("--events", metavar="PATH", default="auto",
                     help="durable event-journal file (default: "
                     "events.jsonl inside the store)")
    srv.add_argument("--no-events", action="store_true",
                     help="disable the durable event journal")
    srv.add_argument("--audit-fraction", type=_fraction, default=0.1,
                     metavar="F",
                     help="fraction of surrogate answers shadow-audited "
                     "against their golden refinement (default 0.1; "
                     "0 disables)")
    srv.add_argument("--flight-dir", metavar="DIR", default=None,
                     help="directory for flight-recorder bundles on "
                     "compute crashes (default: $REPRO_FLIGHT_DIR, "
                     "else disabled)")

    st = sub.add_parser(
        "status",
        help="operational health: query a server's /statusz or summarize "
        "a store + event journal offline")
    st.add_argument("--url", metavar="URL", default=None,
                    help="base URL of a running server "
                    "(e.g. http://127.0.0.1:8431); fetches /statusz")
    st.add_argument("--store", metavar="DIR", default=".repro_store",
                    help="result-database directory for the offline view "
                    "(default .repro_store)")
    st.add_argument("--events", metavar="PATH", default=None,
                    help="event-journal file for the offline view "
                    "(default: events.jsonl inside the store)")
    st.add_argument("--json", action="store_true",
                    help="print the raw /statusz JSON (with --url)")

    ev = sub.add_parser(
        "events", help="inspect durable event journals (JSONL)")
    ev_sub = ev.add_subparsers(dest="events_command", required=True)
    ev_tail = ev_sub.add_parser(
        "tail", help="print the most recent journal events")
    ev_tail.add_argument("file", help="event-journal JSONL file")
    ev_tail.add_argument("-n", "--lines", type=int, default=10, metavar="N",
                         help="events to show (default 10)")
    ev_sum = ev_sub.add_parser(
        "summarize", help="print per-event-name counts of a journal")
    ev_sum.add_argument("file", help="event-journal JSONL file")

    sg = sub.add_parser(
        "surrogate",
        help="fit / inspect the microsecond surrogate tier",
    )
    sg_sub = sg.add_subparsers(dest="surrogate_command", required=True)
    sg_fit = sg_sub.add_parser(
        "fit", help="fit a surrogate over a parameter box and store it",
        **_parent)
    _add_tech_argument(sg_fit)
    # Trains batched by default, the fastest exact path for the factorial
    # grid.
    _add_engine_argument(sg_fit, "batch")
    sg_fit.add_argument("--store", metavar="DIR", default=".repro_store",
                        help="result-database directory to persist the "
                        "fitted model into (default .repro_store)")
    sg_fit.add_argument("--drivers", default="2:12", metavar="LO:HI",
                        help="driver-count validity interval (default 2:12)")
    sg_fit.add_argument("--inductance", default="2e-9:8e-9", metavar="LO:HI",
                        help="ground-inductance interval in henries "
                        "(default 2e-9:8e-9)")
    sg_fit.add_argument("--rise-time", default="0.2e-9:0.8e-9", metavar="LO:HI",
                        help="rise-time interval in seconds "
                        "(default 0.2e-9:0.8e-9)")
    sg_fit.add_argument("--capacitance", default=None, metavar="LO:HI",
                        help="ground-capacitance interval in farads; fits an "
                        "LC surrogate (default: none -> L-only topology)")
    sg_fit.add_argument("--guard", type=float, default=0.0,
                        help="extrapolation allowance per knob as a fraction "
                        "of its span (default 0 = strict box)")
    sg_fit.add_argument("--tolerance", type=float, default=3.0,
                        metavar="PERCENT",
                        help="worst-case peak-error tolerance the model may "
                        "serve under (default 3)")
    sg_fit.add_argument("--samples", type=int, default=2, metavar="N",
                        help="training-grid density per knob; 2 = box "
                        "corners (default 2)")
    sg_fit.add_argument("--strength", type=float, default=1.0,
                        help="driver width multiple frozen into the model "
                        "(default 1)")
    sg_inspect = sg_sub.add_parser(
        "inspect", help="list the fitted surrogate models in a store",
        **_parent)
    sg_inspect.add_argument("--store", metavar="DIR", default=".repro_store",
                            help="result-database directory "
                            "(default .repro_store)")

    tr = sub.add_parser("trace", help="inspect trace files written by --trace")
    tr_sub = tr.add_subparsers(dest="trace_command", required=True)
    tr_sum = tr_sub.add_parser(
        "summarize", help="print a per-span-name timeline summary of a trace")
    tr_sum.add_argument("file", help="Chrome trace-event JSON written by --trace")
    tr_sum.add_argument("--max-depth", type=int, default=6, metavar="N",
                        help="only summarize spans nested at most N deep "
                        "(default: 6)")

    return parser


def _run_fit(args) -> str:
    from .experiments.common import fitted_models

    models = fitted_models(args.tech, args.strength)
    a, ap, sq = models.asdm, models.alpha_power, models.square_law
    lines = [
        f"Technology {args.tech}, driver strength {args.strength}x "
        f"({models.technology.reference_width * args.strength * 1e6:.1f} um pull-down)",
        f"  ASDM (Eqn 3):    K = {a.k * 1e3:.3f} mA/V, V0 = {a.v0:.3f} V, "
        f"lambda = {a.lam:.3f}   "
        f"(max fit err {models.asdm_report.max_relative_error * 100:.1f}%)",
        f"  alpha-power:     B = {ap.b * 1e3:.3f} mA/V^a, Vth = {ap.vth:.3f} V, "
        f"alpha = {ap.alpha:.3f}",
        f"  square law:      beta = {sq.beta * 1e3:.3f} mA/V^2, Vth = {sq.vth:.3f} V",
    ]
    return "\n".join(lines)


def _run_estimate(args) -> str:
    from .experiments.common import fitted_models

    models = fitted_models(args.tech)
    vdd = models.technology.vdd
    lines = [
        f"{args.drivers} drivers, L = {args.inductance:.3g} H, "
        f"tr = {args.rise_time:.3g} s, {args.tech} (VDD = {vdd} V)"
    ]
    l_only = InductiveSsnModel(models.asdm, args.drivers, args.inductance, vdd, args.rise_time)
    lines.append(f"  L-only model (Eqn 7):  peak SSN = {l_only.peak_voltage():.4f} V "
                 f"at t = {l_only.peak_time():.3g} s")
    if args.capacitance is not None:
        lc = LcSsnModel(models.asdm, args.drivers, args.inductance, args.capacitance,
                        vdd, args.rise_time)
        lines.append(f"  LC model (Table 1):    peak SSN = {lc.peak_voltage():.4f} V "
                     f"[{lc.case.value}; zeta = {lc.damping_ratio:.2f}]")
        lines.append(f"  post-ramp extension:   peak SSN = {lc.peak_voltage_extended():.4f} V")
    if args.gate_csv is not None:
        from .core.ssn_pwl import PwlDriveSsnModel
        from .spice.waveform import Waveform

        gate = Waveform.from_csv(args.gate_csv)
        pwl = PwlDriveSsnModel(models.asdm, args.drivers, args.inductance,
                               gate.t, gate.y)
        lines.append(
            f"  PWL drive ({args.gate_csv}): peak SSN = {pwl.peak_voltage():.4f} V "
            f"at t = {pwl.peak_time():.3g} s"
        )
    return "\n".join(lines)


def _run_plan(args) -> str:
    from .experiments.common import fitted_models

    models = fitted_models(args.tech)
    vdd = models.technology.vdd
    params = models.asdm
    lines = [
        f"Bus of {args.bus_width} drivers under a {args.budget} V budget "
        f"({args.tech}, L = {args.inductance:.3g} H, tr = {args.rise_time:.3g} s)"
    ]
    n_max = max_simultaneous_drivers(args.budget, params, args.inductance, vdd, args.rise_time)
    lines.append(f"  max simultaneous drivers: {n_max}")
    tr = required_rise_time(args.budget, params, args.bus_width, args.inductance, vdd)
    lines.append(f"  rise time for the full bus: {tr:.3g} s")
    try:
        pads = required_ground_pads(
            args.budget, params, args.bus_width, args.inductance,
            args.pin_capacitance, vdd, args.rise_time,
        )
        lines.append(
            f"  ground pads for the full bus: {pads.pads} "
            f"(peak {pads.peak_noise:.4f} V)"
        )
    except ValueError as exc:
        lines.append(f"  ground pads for the full bus: {exc}")
    plan = skew_schedule(args.budget, params, args.bus_width, args.inductance, vdd,
                         args.rise_time)
    lines.append(
        f"  skewed launch: {plan.groups} groups of <= {plan.group_size}, "
        f"latency {plan.added_latency:.3g} s, per-group peak {plan.peak_noise:.4f} V"
    )
    return "\n".join(lines)


def _report(name: str, tech: str) -> str:
    module = importlib.import_module(f".experiments.{_EXPERIMENTS[name]}", __package__)
    if name == "processes":  # runs every technology card itself
        return module.run().format_report()
    if name == "ablations":
        return "\n".join(
            ablation(tech).format_report()
            for ablation in (module.resistance_ablation, module.fit_floor_ablation,
                             module.collapse_ablation)
        )
    return module.run(tech).format_report()


def _run_report(args) -> str:
    if args.experiment == "all":
        return "\n".join(_report(name, args.tech) for name in sorted(_EXPERIMENTS))
    return _report(args.experiment, args.tech)


def _asdm_estimator(models):
    """Closed-form peak-SSN estimate matched to each point's topology."""
    vdd = models.technology.vdd

    def estimate(spec: DriverBankSpec) -> float:
        if spec.capacitance is not None:
            return LcSsnModel(models.asdm, spec.n_drivers, spec.inductance,
                              spec.capacitance, vdd, spec.rise_time).peak_voltage()
        return InductiveSsnModel(models.asdm, spec.n_drivers, spec.inductance,
                                 vdd, spec.rise_time).peak_voltage()

    return estimate


def _campaign_summary(runner: CampaignRunner) -> str:
    tel = runner.telemetry
    return (f"  campaign: retries={tel.retries} degradations={tel.degradations} "
            f"chunks_failed={tel.chunks_failed} "
            f"checkpoints={tel.checkpoint_writes}")


def _run_sweep(args) -> str:
    from .experiments.common import fitted_models

    models = fitted_models(args.tech)
    base = _spec(args, models.technology, args.drivers)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        for value in values:
            KNOBS[args.knob](base, value)
    except ValueError as exc:
        raise SystemExit(f"--values: {exc}") from None
    runner = CampaignRunner(_campaign_config(args))
    result = runner.run_sweep(args.knob, base, values, KNOBS[args.knob],
                              {"asdm": _asdm_estimator(models)})
    lines = [
        f"sweep {args.knob} over {len(values)} points "
        f"({args.tech}, L = {args.inductance:.3g} H)",
        f"  {'value':>12}  {'simulated':>10}  {'asdm':>10}  {'err%':>7}",
    ]
    for p in result.points:
        lines.append(
            f"  {p.value:>12.6g}  {p.simulated_peak:>10.4f}  "
            f"{p.estimates['asdm']:>10.4f}  {p.percent_error('asdm'):>7.2f}"
        )
    lines.append(_campaign_summary(runner))
    if args.csv:
        result.to_csv(args.csv)
        lines.append(f"  wrote {args.csv}")
    return "\n".join(lines)


def _run_montecarlo(args) -> str:
    from .analysis.montecarlo import DeviceSpread
    from .experiments.common import fitted_models

    if args.trials < 2:
        raise SystemExit(f"--trials: a spread needs at least 2 draws, got {args.trials}")
    models = fitted_models(args.tech)
    spec = _spec(args, models.technology, args.drivers)
    spread = DeviceSpread(**{k: getattr(args, k) for k in ("vth_sigma", "mu_sigma")
                             if getattr(args, k) is not None})
    runner = CampaignRunner(_campaign_config(args))
    result = runner.run_montecarlo(spec, spread=spread, trials=args.trials,
                                   seed=args.seed)
    lines = [
        f"golden Monte Carlo: {args.trials} trials, {args.drivers} drivers, "
        f"L = {args.inductance:.3g} H, seed {args.seed} ({args.tech})",
        f"  mean peak SSN:  {result.mean:.4f} V   (std {result.std:.4f} V)",
        f"  p95 peak SSN:   {result.p95:.4f} V",
        f"  nominal:        {result.nominal:.4f} V   "
        f"(guard band {result.guard_band:.4f} V)",
        _campaign_summary(runner),
    ]
    return "\n".join(lines)


def _run_serve(args) -> str:
    # Local import: the service stack (asyncio server, store) is only
    # needed by this command.
    from .service import ServiceConfig, run_server

    config = ServiceConfig(
        host=args.host, port=args.port, store_root=args.store,
        max_retries=args.max_retries, deadline=args.deadline,
        chunk_size=args.chunk_size, max_workers=args.workers,
        surrogate=not args.no_surrogate,
        surrogate_refine=not args.no_refine,
        audit_fraction=args.audit_fraction,
        events_path=None if args.no_events else args.events,
        flight_dir=args.flight_dir,
    )
    try:
        run_server(config, announce=lambda line: print(line, flush=True))
    except KeyboardInterrupt:
        pass
    return "server stopped"


def _statusz_lines(payload: dict) -> list[str]:
    """Render a ``/statusz`` JSON snapshot as a short human report."""
    lines = [f"status: {payload.get('status', '?')}"]
    store = payload.get("store") or {}
    if store:
        lines.append(f"  store: {store.get('records', '?')} records, "
                     f"{store.get('quarantined', 0)} quarantined "
                     f"({store.get('root', '?')})")
    lines.append(f"  inflight: {payload.get('inflight', 0)}")
    slo = payload.get("slo") or {}
    if slo:
        budget = slo.get("error_budget") or {}
        lines.append(
            f"  slo[{slo.get('window_seconds', '?')}s]: "
            f"{slo.get('requests', 0)} requests, "
            f"error rate {slo.get('error_rate', 0.0):.4f}, "
            f"hit rate {slo.get('hit_rate', 0.0):.2f}, "
            f"surrogate rate {slo.get('surrogate_rate', 0.0):.2f}, "
            f"budget {budget.get('state', '?')} "
            f"({budget.get('remaining', 0.0):.2f} remaining)")
    surrogate = payload.get("surrogate") or {}
    if surrogate:
        audit = surrogate.get("audit") or {}
        lines.append(f"  surrogate: {surrogate.get('models', 0)} models, "
                     f"audit fraction {audit.get('fraction', 0.0):g}, "
                     f"{audit.get('pending', 0)} audits pending")
        for region, stats in sorted((audit.get("regions") or {}).items()):
            flag = "  DEMOTED" if stats.get("demoted") else ""
            lines.append(
                f"    {region}: {stats.get('samples', 0)} audited, "
                f"max err {stats.get('max_abs_percent', 0.0):.2f}%{flag}")
        for slot in audit.get("demoted") or []:
            lines.append(
                f"    demoted {slot.get('technology')}/{slot.get('topology')}"
                f"/{slot.get('operating_region')}: {slot.get('reason')}")
    events = payload.get("events") or {}
    if events:
        lines.append(f"  events: {events.get('recorded', 0)} recorded "
                     f"-> {events.get('path') or '(memory only)'}")
    return lines


def _run_status(args) -> str:
    if args.url:
        # Local import: only this branch needs an HTTP client.
        import json
        import urllib.request

        url = args.url.rstrip("/") + "/statusz"
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                payload = json.loads(response.read().decode())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"status: cannot fetch {url}: {exc}") from None
        if args.json:
            return json.dumps(payload, indent=2, sort_keys=True)
        return "\n".join([f"statusz from {url}:"] + _statusz_lines(payload))

    # Offline view: summarize the store directory and its event journal.
    from pathlib import Path

    from .service import ResultStore
    from .service.store import read_head

    root = Path(args.store)
    if not root.exists():
        raise SystemExit(f"status: no store at {root} "
                         "(pass --store or --url)")
    store = ResultStore(root)
    events_path = Path(args.events) if args.events else root / "events.jsonl"
    lines = [
        f"store {root}: {len(store)} records, "
        f"{len(store.quarantined())} quarantined",
    ]
    kinds: dict[str, int] = {}
    for path in sorted(root.glob("??/*.json")):
        head = read_head(path)  # never decodes a simulation's waveforms
        kind = head.get("kind", "?") if isinstance(head, dict) else "?"
        kinds[kind] = kinds.get(kind, 0) + 1
    for kind in sorted(kinds):
        lines.append(f"  {kind}: {kinds[kind]}")
    if events_path.exists():
        events = obs_events.read_journal(events_path)
        lines.append(f"journal {events_path}:")
        lines.extend("  " + line for line in
                     obs_events.summarize_events(events).splitlines())
    else:
        lines.append(f"journal {events_path}: (absent)")
    return "\n".join(lines)


def _run_events(args) -> str:
    events = obs_events.read_journal(args.file)
    if args.events_command == "tail":
        if not events:
            return f"{args.file}: no events"
        shown = events[-max(args.lines, 0):]
        return "\n".join(obs_events.format_event(event) for event in shown)
    return "\n".join([f"{args.file}:"] +
                     ["  " + line for line in
                      obs_events.summarize_events(events).splitlines()])


def _parse_interval(text: str, name: str) -> tuple[float, float]:
    """Parse a ``LO:HI`` interval argument into a (lo, hi) float pair."""
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise SystemExit(f"--{name}: expected LO:HI, got {text!r}") from None
    if not lo < hi:
        raise SystemExit(f"--{name}: need LO < HI, got {text!r}")
    return lo, hi


def _run_surrogate(args) -> str:
    # Local import: the surrogate tier and store are only needed here.
    from .service import ResultStore, surrogate_key
    from .surrogate import fit_surrogate

    store = ResultStore(args.store)
    if args.surrogate_command == "inspect":
        lines = [f"surrogate models in {args.store}:"]
        count = 0
        for record in store.iter_records(kind="surrogate"):
            model = record["model"]
            error = model["error"]
            box = ", ".join(
                f"{knob} [{lo:.3g}, {hi:.3g}]"
                for knob, (lo, hi) in sorted(model["region"]["box"].items())
            )
            lines.append(
                f"  {model['technology']}/{model['topology']}"
                f"/{model['operating_region']}: max err "
                f"{error['max_abs_percent']:.2f}% over "
                f"{model['n_training']} training points; {box}"
            )
            count += 1
        if count == 0:
            lines.append("  (none)")
        return "\n".join(lines)

    model = fit_surrogate(
        args.tech,
        n_drivers=_parse_interval(args.drivers, "drivers"),
        inductance=_parse_interval(args.inductance, "inductance"),
        rise_time=_parse_interval(args.rise_time, "rise-time"),
        capacitance=(None if args.capacitance is None
                     else _parse_interval(args.capacitance, "capacitance")),
        guard=args.guard,
        tolerance_percent=args.tolerance,
        samples_per_knob=args.samples,
        driver_strength=args.strength,
        engine=args.engine,
    )
    key = surrogate_key(model.technology, model.topology, model.operating_region)
    store.put_surrogate(key, model)
    box = ", ".join(f"{knob} [{lo:.3g}, {hi:.3g}]" for knob, lo, hi in model.region.box)
    return "\n".join([
        f"fitted surrogate {model.technology}/{model.topology}"
        f"/{model.operating_region} -> {args.store} ({key[:12]}...)",
        f"  validity box: {box} (guard {model.region.guard:g})",
        f"  ASDM: K = {model.asdm.k * 1e3:.3f} mA/V, V0 = {model.asdm.v0:.3f} V, "
        f"lambda = {model.asdm.lam:.3f}",
        f"  peak error vs golden MNA: max {model.error.max_abs_percent:.2f}%, "
        f"mean {model.error.mean_abs_percent:.2f}% "
        f"over {model.n_training} training points "
        f"(serving tolerance {model.tolerance_percent:g}%)",
    ])


def _run_trace(args) -> str:
    return summarize_trace_file(args.file, max_depth=args.max_depth)


def _run_simulate(args) -> str:
    from .experiments.common import fitted_models

    models = fitted_models(args.tech)
    counts = [int(v) for v in args.drivers.split(",") if v.strip()]
    specs = [_spec(args, models.technology, n) for n in counts]
    runner = CampaignRunner(_campaign_config(args))
    summaries = runner.run_simulate(specs)
    lines = [
        f"golden simulation of {len(counts)} configurations "
        f"({args.tech}, L = {args.inductance:.3g} H, "
        f"tr = {args.rise_time:.3g} s)",
        f"  {'drivers':>8}  {'peak SSN':>10}  {'at':>10}  engine",
    ]
    for n, summary in zip(counts, summaries):
        lines.append(
            f"  {n:>8}  {summary.peak_voltage:>10.4f}  "
            f"{summary.peak_time:>10.3g}  {summary.engine}"
        )
    lines.append(_campaign_summary(runner))
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "fit": _run_fit,
        "estimate": _run_estimate,
        "plan": _run_plan,
        "report": _run_report,
        "sweep": _run_sweep,
        "montecarlo": _run_montecarlo,
        "simulate": _run_simulate,
        "serve": _run_serve,
        "status": _run_status,
        "events": _run_events,
        "surrogate": _run_surrogate,
        "trace": _run_trace,
    }
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    report = getattr(args, "telemetry", False)
    json_path = getattr(args, "telemetry_json", None)
    tracer = obs_trace.enable_tracing(
        sample=args.trace_sample, detail=args.trace_detail,
    ) if trace_path else None
    registry = (obs_metrics.enable_metrics()
                if report or json_path or metrics_path else None)
    try:
        print(handlers[args.command](args))
        if report or json_path:
            telemetry = SolverTelemetry.from_registry(registry)
            if report:
                print(telemetry.format_report())
            if json_path:
                atomic_write_json(json_path, telemetry.as_dict())
        if tracer is not None:
            write_chrome_trace(trace_path, tracer.spans, tracer)
        if metrics_path:
            write_prometheus(metrics_path, registry)
    finally:
        obs_trace.disable_tracing()
        obs_metrics.disable_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
