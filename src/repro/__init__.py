"""repro — reproduction of Ding & Mazumder, DATE 2002.

"Accurate Estimating Simultaneous Switching Noises by Using Application
Specific Device Modeling": an application-specific MOSFET model (ASDM)
yielding exact closed-form formulas for simultaneous switching noise (SSN,
ground bounce) at chip I/O pads, with and without the package's parasitic
capacitance.

Package layout:

* :mod:`repro.core`       — ASDM, the SSN formulas, damping analysis,
  parameter extraction and design helpers (the paper's contribution).
* :mod:`repro.devices`    — MOSFET models (golden short-channel device,
  alpha-power law, square law).
* :mod:`repro.process`    — synthetic 0.18/0.25/0.35 um technology cards.
* :mod:`repro.packaging`  — package ground-path parasitics.
* :mod:`repro.spice`      — MNA transient circuit simulator (the HSPICE
  substitute used for golden validation).
* :mod:`repro.baselines`  — prior-art SSN estimators (Vemuru, Song, Jou,
  Senthinathan).
* :mod:`repro.analysis`   — golden-simulation harness, sweeps, metrics,
  Monte Carlo.
* :mod:`repro.experiments`— one module per paper table/figure.
* :mod:`repro.service`    — persistent content-addressed result store and
  the async HTTP serving layer (``python -m repro serve``).
* :mod:`repro.surrogate`  — auto-fitted closed-form surrogate tier with
  validity regions and error bounds (the microsecond answer path).

Quickstart: see ``examples/quickstart.py`` or :mod:`repro.core`.
"""

__version__ = "1.0.0"

import importlib

#: Subpackages resolved lazily (PEP 562), so ``import repro`` costs nothing
#: and a caller pays only for the subpackages it touches — ``import
#: repro.core`` does not drag in the circuit engine, the service stack or
#: ``scipy.optimize`` (whose import alone takes longer than all of
#: ``repro.core``).
_SUBPACKAGES = (
    "analysis",
    "baselines",
    "core",
    "devices",
    "experiments",
    "packaging",
    "process",
    "service",
    "spice",
    "surrogate",
)

__all__ = ["__version__", *_SUBPACKAGES]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBPACKAGES))
