"""The engine parity script: a compare that passes everything proves nothing."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.spice import Circuit, Ramp, TransientOptions

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "engine_parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("engine_parity", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rc():
    c = Circuit()
    c.vsource("V1", "in", "0", Ramp(0.0, 1.0, 0.0, 1e-9))
    c.resistor("R1", "in", "out", 1e3)
    c.capacitor("C1", "out", "0", 1e-12, ic=0.0)
    return c


def test_run_case_captures_waveforms_and_counters(parity):
    out = parity.run_case(_rc, 2e-9, 0.1e-9, TransientOptions())
    assert {"times", "telemetry", "v:out", "v:in", "i:C1"} <= set(out)
    assert "phase_seconds" not in str(out["telemetry"])


def test_run_case_dumps_an_ensemble_per_instance(parity):
    """A build returning a list runs as one batched ensemble."""
    out = parity.run_case(lambda: [_rc(), _rc()], 2e-9, 0.1e-9, TransientOptions())
    assert {"0/times", "0/i:C1", "1/v:out", "1/telemetry"} <= set(out)
    assert np.array_equal(out["0/v:out"], out["1/v:out"])


def test_compare_flags_one_flipped_bit_and_a_missing_case(parity, tmp_path, capsys):
    arrays = {f"rc/{k}": v for k, v in
              parity.run_case(_rc, 2e-9, 0.1e-9, TransientOptions()).items()}
    arrays["__cases__"] = np.array(["rc"])
    a, b, c = (str(tmp_path / name) for name in ("a.npz", "b.npz", "c.npz"))
    np.savez(a, **arrays)
    np.savez(b, **arrays)
    assert parity.compare(a, b) == 0

    flipped = dict(arrays)
    v = flipped["rc/v:out"].copy()
    v.view(np.int64)[-1] ^= 1  # one ulp on the last sample
    flipped["rc/v:out"] = v
    np.savez(c, **flipped)
    assert parity.compare(a, c) == 1
    assert "rc/v:out: differs" in capsys.readouterr().out

    del flipped["rc/v:out"]
    np.savez(c, **flipped)
    assert parity.compare(a, c) == 1
