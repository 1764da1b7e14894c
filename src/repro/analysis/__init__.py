"""Golden-simulation harness, sweeps, metrics and Monte Carlo extensions.

The public names resolve lazily (PEP 562): ``import repro.analysis`` loads
nothing else, and importing one submodule (``repro.analysis.driver_bank``
for the service's key contract, say) does not drag in the buffer chain,
the CMOS bank or the sweep layer.  A name is imported from its submodule
on first access and cached in the package namespace.
"""

import importlib

#: public name -> defining submodule.
_EXPORTS = {
    "BufferChainSimulation": "buffer_chain",
    "BufferChainSpec": "buffer_chain",
    "build_buffer_chain": "buffer_chain",
    "simulate_buffer_chain": "buffer_chain",
    "CmosDriverBankSpec": "cmos_driver",
    "CmosSimulation": "cmos_driver",
    "build_cmos_driver_bank": "cmos_driver",
    "simulate_cmos": "cmos_driver",
    "DriverBankSpec": "driver_bank",
    "build_driver_bank": "driver_bank",
    "ENGINES": "engine",
    "resolve_engine": "engine",
    "ErrorSummary": "metrics",
    "WaveformComparison": "metrics",
    "batch_peaks": "metrics",
    "batch_settling_times": "metrics",
    "compare_waveforms": "metrics",
    "percent_error": "metrics",
    "relative_error": "metrics",
    "settling_time": "metrics",
    "DeviceSpread": "montecarlo",
    "MonteCarloResult": "montecarlo",
    "ParameterSpread": "montecarlo",
    "peak_noise_distribution": "montecarlo",
    "transient_peak_distribution": "montecarlo",
    "parallel_map": "parallel",
    "resolve_workers": "parallel",
    "EffectiveRamp": "ramps",
    "crossing_time": "ramps",
    "extract_effective_ramp": "ramps",
    "SsnSimulation": "simulate",
    "aggregate_telemetry": "simulate",
    "default_stop_time": "simulate",
    "default_time_step": "simulate",
    "simulate_many": "simulate",
    "simulate_ssn": "simulate",
    "simulate_ssn_cached": "simulate",
    "SweepPoint": "sweeps",
    "SweepResult": "sweeps",
    "sweep": "sweeps",
    "sweep_driver_count": "sweeps",
    "sweep_ground_capacitance": "sweeps",
    "sweep_rise_time": "sweeps",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
