"""Bitwise parity of the transient engines between two source trees.

Runs a fixed case set through ``repro.spice.transient`` (scalar cases) and
``repro.spice.batch.batch_transient`` (batched ensembles) and writes every
waveform sample and every telemetry counter (all but the wall-clock
``phase_seconds``) to one ``.npz`` file, per instance for the ensembles;
``compare`` then checks two such files bit for bit.  Dump once from each
tree and compare to show that a refactor of the engines changed nothing
they compute; dump twice from one tree to check run-to-run determinism.

Usage::

    PYTHONPATH=src python scripts/engine_parity.py dump parity_new.npz
    PYTHONPATH=/path/to/other/src python scripts/engine_parity.py dump parity_old.npz
    python scripts/engine_parity.py compare parity_old.npz parity_new.npz

``compare`` exits 1 on any missing case or differing bit.

The case set:

* Fig. 2 driver banks, N = 1, 8 and 16, with and without the ground-path
  capacitor, through trap and BE, fixed and adaptive stepping;
* the ``max_newton=5`` bank that fails Newton at its base step, fixed and
  adaptive, plus the run whose ``min_dt`` floor makes that failure
  unrecoverable (its telemetry is recorded);
* multi-device banks, where per-device stamping matters most: a skewed
  launch (N = 7, one input ramp per driver) and a non-collapsed bank
  (N = 13), fixed and adaptive;
* a 160-section driven RC ladder and a 60-section linear ladder (the
  cached-factorization path on a large system);
* the coupled-inductor nets of ``tests/test_spice_mutual.py``;
* batched ensembles: Fig. 3 (L-only) and Fig. 4-class (LC) driver sweeps
  at B = 8 and B = 30 through trap and BE on the fixed grid, an adaptive
  sweep through both methods, a 16-trial Monte Carlo fleet, and the
  ``max_newton=5`` ensemble in which one instance fails Newton, fixed and
  adaptive.

Scalar case names end in ``-dense``, as they did while a sparse
linear-algebra tier also ran, so dumps of older trees compare case by
case.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np


def _bank_cases():
    from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
    from repro.analysis.simulate import default_stop_time
    from repro.process import TSMC018
    from repro.spice.transient import TransientOptions

    for n in (1, 8, 16):
        for cap in (None, 2e-12):
            spec = DriverBankSpec(technology=TSMC018, n_drivers=n,
                                  inductance=5e-9, rise_time=0.5e-9,
                                  capacitance=cap)
            tstop = default_stop_time(spec)
            for method in ("trap", "be"):
                for adaptive in (False, True):
                    dt = spec.rise_time / (20 if adaptive else 50)
                    name = (f"bank-N{n}-{'C' if cap else 'L'}-{method}-"
                            f"{'adaptive' if adaptive else 'fixed'}-dense")
                    opts = TransientOptions(method=method, adaptive=adaptive)
                    yield name, (lambda s=spec: build_driver_bank(s)), tstop, dt, opts

    failing = DriverBankSpec(technology=TSMC018, n_drivers=3, inductance=5e-9,
                             rise_time=0.2e-9, capacitance=2e-12,
                             load_capacitance=10e-12, collapse=False)
    tstop = default_stop_time(failing)
    dt = failing.rise_time
    for adaptive in (False, True):
        name = f"failing-{'adaptive' if adaptive else 'fixed'}-dense"
        opts = TransientOptions(max_newton=5, adaptive=adaptive)
        yield name, (lambda: build_driver_bank(failing)), tstop, dt, opts
    yield ("failing-unrecoverable-dense", (lambda: build_driver_bank(failing)),
           tstop, dt, TransientOptions(max_newton=5, min_dt=dt))


def _multi_device_cases():
    from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
    from repro.analysis.simulate import default_stop_time
    from repro.process import TSMC018
    from repro.spice.transient import TransientOptions

    rise = 0.5e-9
    skewed = DriverBankSpec(technology=TSMC018, n_drivers=7, inductance=5e-9,
                            rise_time=rise,
                            input_offsets=tuple(0.04 * k * rise for k in range(7)))
    bank = DriverBankSpec(technology=TSMC018, n_drivers=13, inductance=5e-9,
                          rise_time=rise, collapse=False)
    for label, spec in (("skew-N7", skewed), ("bank-N13-explicit", bank)):
        tstop = default_stop_time(spec)
        for adaptive in (False, True):
            dt = rise / (20 if adaptive else 50)
            yield (f"{label}-{'adaptive' if adaptive else 'fixed'}-dense",
                   (lambda s=spec: build_driver_bank(s)), tstop, dt,
                   TransientOptions(adaptive=adaptive))


def _ladder_cases():
    from repro.spice.transient import TransientOptions
    from repro.testing.netlists import ladder_circuit

    yield ("ladder160-driven-dense", (lambda: ladder_circuit(160)),
           0.5e-9, 0.02e-9, TransientOptions())
    yield ("ladder60-linear-dense", (lambda: ladder_circuit(60, driver=False)),
           0.5e-9, 0.01e-9, TransientOptions())
    yield ("ladder60-linear-adaptive-dense",
           (lambda: ladder_circuit(60, driver=False)),
           0.5e-9, 0.05e-9, TransientOptions(adaptive=True))


def _mutual_cases():
    from repro.spice import Circuit, Dc
    from repro.spice.transient import TransientOptions

    def pair(coupling):
        c = Circuit()
        c.vsource("V1", "in", "0", Dc(1.0))
        c.resistor("R1", "in", "a", 100.0)
        c.inductor("L1", "a", "0", 10e-9)
        c.inductor("L2", "a", "0", 10e-9)
        if coupling:
            c.mutual("K1", "L1", "L2", coupling)
        return c

    def transformer():
        c = Circuit()
        c.vsource("V1", "in", "0", Dc(1.0))
        c.resistor("R1", "in", "p", 50.0)
        c.inductor("L1", "p", "0", 10e-9)
        c.inductor("L2", "s", "0", 10e-9)
        c.resistor("Rload", "s", "0", 1e6)
        c.mutual("K1", "L1", "L2", 0.8)
        return c

    for k in (None, 1e-6, 0.2, 0.5, 0.9):
        yield (f"mutual-pair-k{k}-dense", (lambda k=k: pair(k)), 3e-10, 2e-13,
               TransientOptions())
    yield "mutual-transformer-dense", transformer, 2e-10, 1e-13, TransientOptions()


def _batch_cases():
    from repro.analysis.driver_bank import DriverBankSpec, build_driver_bank
    from repro.analysis.montecarlo import device_trials
    from repro.analysis.simulate import default_stop_time, default_time_step
    from repro.process import TSMC018
    from repro.spice.transient import TransientOptions

    def ensemble(specs):
        return lambda: [build_driver_bank(s) for s in specs]

    def sweep(counts, rise_time=0.5e-9, **fields):
        base = DriverBankSpec(technology=TSMC018, n_drivers=1, inductance=5e-9,
                              rise_time=rise_time, **fields)
        return [dataclasses.replace(base, n_drivers=n) for n in counts]

    for size in (8, 30):
        for cap in (None, 2e-12):
            specs = sweep(range(1, size + 1), capacitance=cap)
            tstop, dt = default_stop_time(specs[0]), default_time_step(specs[0])
            for method in ("trap", "be"):
                yield (f"batch-B{size}-{'C' if cap else 'L'}-{method}-fixed",
                       ensemble(specs), tstop, dt, TransientOptions(method=method))
    specs = sweep(range(2, 17, 2))
    tstop, dt = default_stop_time(specs[0]), 4.0 * default_time_step(specs[0])
    for method in ("trap", "be"):
        yield (f"batch-B8-L-{method}-adaptive", ensemble(specs), tstop, dt,
               TransientOptions(method=method, adaptive=True))

    (nominal,) = sweep([4])
    _, trials = device_trials(nominal, None, 16, seed=7)
    yield ("batch-montecarlo16", ensemble(trials), default_stop_time(nominal),
           default_time_step(nominal), TransientOptions())

    # Of these, only the N = 8 bank fails Newton at the half-rise step with
    # max_newton=5: one lane leaves the fixed lockstep for the scalar
    # ladder, and halves its own step in the adaptive one.
    failing = sweep((1, 2, 8, 4), rise_time=0.2e-9, capacitance=2e-12,
                    load_capacitance=10e-12)
    tstop, dt = default_stop_time(failing[0]), failing[0].rise_time / 2
    for adaptive in (False, True):
        yield (f"batch-failing-{'adaptive' if adaptive else 'fixed'}",
               ensemble(failing), tstop, dt,
               TransientOptions(max_newton=5, adaptive=adaptive))


def cases():
    """Every ``(name, build, tstop, dt, options)`` of the parity set.

    ``build`` returns one circuit (the scalar engine) or a list of circuits
    (one batched ensemble).
    """
    yield from _bank_cases()
    yield from _multi_device_cases()
    yield from _ladder_cases()
    yield from _mutual_cases()
    yield from _batch_cases()


def _telemetry_json(tel) -> str:
    data = tel.as_dict()
    data.pop("phase_seconds", None)
    return json.dumps(data, sort_keys=True)


def _result_arrays(circuit, result) -> dict:
    out = {"times": result.times,
           "telemetry": np.array(_telemetry_json(result.telemetry))}
    for node in result.node_names:
        out[f"v:{node}"] = result.voltage(node).y
    for el in circuit.elements:
        try:
            out[f"i:{el.name}"] = result.current(el.name).y
        except KeyError:
            continue
    return out


def run_case(build, tstop, dt, options) -> dict:
    """The arrays and telemetry of one case, keyed by field name; an
    ensemble's fields are prefixed by the instance index (``"3/times"``)."""
    from repro.spice.batch import batch_transient
    from repro.spice.solver import ConvergenceError
    from repro.spice.transient import transient

    built = build()
    if isinstance(built, list):
        results = batch_transient(built, tstop, dt, options=options)
        return {f"{b}/{field}": value
                for b, (circuit, result) in enumerate(zip(built, results))
                for field, value in _result_arrays(circuit, result).items()}
    try:
        result = transient(built, tstop, dt, options=options)
    except ConvergenceError as exc:
        return {"error": np.array(str(exc)),
                "telemetry": np.array(_telemetry_json(exc.telemetry))}
    return _result_arrays(built, result)


def dump(path: str) -> int:
    arrays = {}
    names = []
    for name, build, tstop, dt, options in cases():
        names.append(name)
        for field, value in run_case(build, tstop, dt, options).items():
            arrays[f"{name}/{field}"] = value
    arrays["__cases__"] = np.array(names)
    np.savez(path, **arrays)
    print(f"{len(names)} cases, {len(arrays) - 1} arrays -> {path}")
    return 0


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def compare(path_a: str, path_b: str) -> int:
    with np.load(path_a) as fa, np.load(path_b) as fb:
        a = {k: fa[k] for k in fa.files}
        b = {k: fb[k] for k in fb.files}
    mismatches = []
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            mismatches.append(f"{key}: only in {path_a if key in a else path_b}")
        elif not _same_bits(a[key], b[key]):
            detail = ""
            if a[key].dtype.kind == "f" and a[key].shape == b[key].shape:
                detail = f" (max |diff| {np.max(np.abs(a[key] - b[key])):.3e})"
            elif a[key].dtype.kind == "U":
                detail = f"\n    {a[key]}\n    {b[key]}"
            mismatches.append(f"{key}: differs{detail}")
    cases_n = len(a.get("__cases__", ()))
    for line in mismatches:
        print(line)
    print(f"{cases_n} cases, {len(a)} arrays compared: {len(mismatches)} mismatches")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the case set and write OUT (.npz)")
    p_dump.add_argument("out")
    p_cmp = sub.add_parser("compare", help="exit 1 unless A and B match bit for bit")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "dump":
        return dump(args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
