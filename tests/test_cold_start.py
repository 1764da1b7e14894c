"""Import hygiene: a command loads only the modules it runs.

Each check starts a fresh interpreter and inspects ``sys.modules`` after
an import, so the result is a deterministic module set, not a timing.
The rule: module scope imports only what every caller of that module
needs; the experiment stack, the baselines and the slow ``scipy``
subpackages load inside the functions that use them.  (The server still
imports its whole compute stack at start-up on purpose, so no request
pays an import.)
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, *args, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str) -> set[str]:
    """Module names in ``sys.modules`` after ``statement`` in a fresh process."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_run(code).splitlines()[-1]))


@pytest.mark.parametrize("module", [
    "repro.experiments",
    "repro.baselines",
    "scipy.stats",
    "scipy.optimize",
    "scipy.integrate",
])
def test_cli_and_server_skip_what_only_other_commands_need(module):
    assert module not in _loaded_after("import repro.cli, repro.service.server")


def test_transient_engine_loads_no_sparse_linear_algebra():
    """Every MNA system is dense, so the engine has no use for
    ``scipy.sparse`` and its ~70 submodules."""
    loaded = _loaded_after("import repro.spice.transient")
    assert sorted(name for name in loaded
                  if name == "scipy.sparse" or name.startswith("scipy.sparse.")) == []


def test_analysis_package_loads_no_engine():
    loaded = _loaded_after("import repro.analysis")
    assert "repro.spice" not in loaded
    assert not any(name.startswith("repro.analysis.") for name in loaded)


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of every module ``path`` imports, at any depth."""
    package = ".".join(path.relative_to(SRC).with_suffix("").parts[:-1])
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            base = base[:len(base) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_analysis_never_imports_the_surrogate_tier():
    """The dependency runs one way: the surrogate tier trains on the
    analysis layer, and no analysis module reaches back into it."""
    offenders = sorted(
        str(path.relative_to(SRC))
        for path in (SRC / "repro" / "analysis").rglob("*.py")
        if any(name == "repro.surrogate" or name.startswith("repro.surrogate.")
               for name in _imported_modules(path)))
    assert offenders == []


def test_driver_bank_alone_skips_the_other_analysis_modules():
    """The service's key contract imports ``analysis.driver_bank``; that
    must not run the buffer chain, CMOS bank or sweep layer."""
    loaded = _loaded_after("import repro.analysis.driver_bank")
    for name in ("buffer_chain", "cmos_driver", "sweeps", "montecarlo"):
        assert f"repro.analysis.{name}" not in loaded


def test_every_public_analysis_name_resolves():
    code = (
        "import repro.analysis as a\n"
        "missing = [n for n in a.__all__ if getattr(a, n, None) is None]\n"
        "hidden = sorted(set(a.__all__) - set(dir(a)))\n"
        "print(missing, hidden, len(a.__all__))"
    )
    missing, hidden, count = _run(code).split(" ", 2)
    assert (missing, hidden) == ("[]", "[]")
    assert int(count) > 0


def test_every_experiment_module_resolves():
    code = (
        "import repro.experiments as e\n"
        "print(all(hasattr(getattr(e, n), 'run') or n == 'ablations'"
        " for n in e.__all__), sorted(set(e.__all__) - set(dir(e))))"
    )
    assert _run(code).split() == ["True", "[]"]


def test_unknown_names_still_raise():
    code = (
        "import repro.analysis as a, repro.experiments as e\n"
        "for mod in (a, e):\n"
        "    try:\n"
        "        mod.no_such_name\n"
        "    except AttributeError:\n"
        "        print('ok')\n"
    )
    assert _run(code).split() == ["ok", "ok"]


def test_report_resolves_its_experiment_end_to_end():
    out = _run("from repro.cli import main; main(['report', 'table1'])")
    assert out.startswith("Table 1")
    for case in ("OVERDAMPED", "CRITICALLY_DAMPED", "UNDERDAMPED_FIRST_PEAK",
                 "UNDERDAMPED_BOUNDARY"):
        assert case in out
