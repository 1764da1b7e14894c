"""Reproductions of every table and figure in the paper's evaluation.

One module per artifact (see DESIGN.md's per-experiment index):

* :mod:`.fig1_iv_fit`        — Fig. 1, IV curves vs the ASDM fit (E1).
* :mod:`.fig2_waveforms`     — Fig. 2, waveform-level validation (E2).
* :mod:`.fig3_model_comparison` — Fig. 3, model shoot-out vs N (E3).
* :mod:`.fig4_capacitance`   — Fig. 4, the capacitance effect (E4).
* :mod:`.table1_formulas`    — Table 1, the four peak formulas (E5).
* :mod:`.processes`          — 0.25/0.35 um repetition (E6).
* :mod:`.damping_map`        — Eqn 27 critical capacitance (E7).
* :mod:`.ablations`          — resistance/fit-floor/collapse ablations (E8).
* :mod:`.power_rail`         — power-supply dual + crowbar ablation (E10).
* :mod:`.mutual_coupling`    — coupled ground pins (E11).
* :mod:`.skew`               — skewed-bus schedule verification (E12).
* :mod:`.realistic_input`    — tapered-chain gate edges + PWL model (E13).
* :mod:`.impedance`          — ground-path impedance vs damping regions (E14).
* :mod:`.pattern_statistics` — random-data per-cycle SSN distribution (E15).
* :mod:`.delay_degradation`  — SSN-induced victim delay push-out (E16).
* :mod:`.capacitance_sweep`  — peak SSN vs C; worst-case decap (E17).
* :mod:`.temperature`        — SSN across temperature corners (E18).

Each module exposes ``run(...)`` returning a result object with a
``format_report()`` text rendering; the benchmarks print those reports.
"""

import importlib

#: Experiment modules, resolved lazily (PEP 562) like the subpackages of
#: :mod:`repro`, so ``repro.experiments.common`` (the fitted models every
#: CLI estimate starts from) loads without the seventeen experiments.
_MODULES = (
    "ablations",
    "capacitance_sweep",
    "damping_map",
    "delay_degradation",
    "fig1_iv_fit",
    "fig2_waveforms",
    "fig3_model_comparison",
    "fig4_capacitance",
    "impedance",
    "mutual_coupling",
    "pattern_statistics",
    "power_rail",
    "processes",
    "realistic_input",
    "skew",
    "table1_formulas",
    "temperature",
)

__all__ = list(_MODULES)


def __getattr__(name: str):
    if name in _MODULES:
        module = importlib.import_module(f".{name}", __name__)
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_MODULES))
