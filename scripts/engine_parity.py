"""Bitwise parity of the scalar transient engine between two source trees.

Runs a fixed case set through ``repro.spice.transient`` and writes every
waveform sample and every telemetry counter (all but the wall-clock
``phase_seconds``) to one ``.npz`` file; ``compare`` then checks two such
files bit for bit.  Dump once from each tree and compare to show that a
refactor of the engine changed nothing it computes; dump twice from one
tree to check run-to-run determinism.

Usage::

    PYTHONPATH=src python scripts/engine_parity.py dump parity_new.npz
    PYTHONPATH=/path/to/other/src python scripts/engine_parity.py dump parity_old.npz
    python scripts/engine_parity.py compare parity_old.npz parity_new.npz

``compare`` exits 1 on any missing case or differing bit.

The case set:

* Fig. 2 driver banks, N = 1, 8 and 16, with and without the ground-path
  capacitor, through trap and BE, fixed and adaptive stepping, dense and
  sparse linear algebra;
* the ``max_newton=5`` bank that fails Newton at its base step, fixed and
  adaptive, on both tiers, plus the run whose ``min_dt`` floor makes that
  failure unrecoverable (its telemetry is recorded);
* a 160-section driven RC ladder (sparse by size) and a 60-section linear
  ladder (the cached-factorization path), each on both tiers;
* the coupled-inductor nets of ``tests/test_spice_mutual.py``.
"""

from __future__ import annotations

import argparse
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
                    for sparse in (False, True):
                        name = (f"bank-N{n}-{'C' if cap else 'L'}-{method}-"
                                f"{'adaptive' if adaptive else 'fixed'}-"
                                f"{'sparse' if sparse else 'dense'}")
                        opts = TransientOptions(method=method, adaptive=adaptive,
                                                sparse=sparse)
                        yield name, (lambda s=spec: build_driver_bank(s)), tstop, dt, opts

    failing = DriverBankSpec(technology=TSMC018, n_drivers=3, inductance=5e-9,
                             rise_time=0.2e-9, capacitance=2e-12,
                             load_capacitance=10e-12, collapse=False)
    tstop = default_stop_time(failing)
    dt = failing.rise_time
    for adaptive in (False, True):
        for sparse in (False, True):
            name = (f"failing-{'adaptive' if adaptive else 'fixed'}-"
                    f"{'sparse' if sparse else 'dense'}")
            opts = TransientOptions(max_newton=5, adaptive=adaptive, sparse=sparse)
            yield name, (lambda: build_driver_bank(failing)), tstop, dt, opts
    for sparse in (False, True):
        opts = TransientOptions(max_newton=5, min_dt=dt, sparse=sparse)
        yield (f"failing-unrecoverable-{'sparse' if sparse else 'dense'}",
               (lambda: build_driver_bank(failing)), tstop, dt, opts)


def _ladder_cases():
    from repro.spice.transient import TransientOptions
    from repro.testing.netlists import ladder_circuit

    for sparse in (False, True):
        tier = "sparse" if sparse else "dense"
        yield (f"ladder160-driven-{tier}", (lambda: ladder_circuit(160)),
               0.5e-9, 0.02e-9, TransientOptions(sparse=sparse))
        yield (f"ladder60-linear-{tier}",
               (lambda: ladder_circuit(60, driver=False)),
               0.5e-9, 0.01e-9, TransientOptions(sparse=sparse))
        yield (f"ladder60-linear-adaptive-{tier}",
               (lambda: ladder_circuit(60, driver=False)),
               0.5e-9, 0.05e-9, TransientOptions(sparse=sparse, adaptive=True))


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
        for sparse in (False, True):
            yield (f"mutual-pair-k{k}-{'sparse' if sparse else 'dense'}",
                   (lambda k=k: pair(k)), 3e-10, 2e-13,
                   TransientOptions(sparse=sparse))
    for sparse in (False, True):
        yield (f"mutual-transformer-{'sparse' if sparse else 'dense'}",
               transformer, 2e-10, 1e-13, TransientOptions(sparse=sparse))


def cases():
    """Every ``(name, build, tstop, dt, options)`` of the parity set."""
    yield from _bank_cases()
    yield from _ladder_cases()
    yield from _mutual_cases()


def _telemetry_json(tel) -> str:
    data = tel.as_dict()
    data.pop("phase_seconds", None)
    return json.dumps(data, sort_keys=True)


def run_case(build, tstop, dt, options) -> dict:
    """The arrays and telemetry of one case, keyed by field name."""
    from repro.spice.solver import ConvergenceError
    from repro.spice.transient import transient

    circuit = build()
    try:
        result = transient(circuit, tstop, dt, options=options)
    except ConvergenceError as exc:
        return {"error": np.array(str(exc)),
                "telemetry": np.array(_telemetry_json(exc.telemetry))}
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
