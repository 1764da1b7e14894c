"""Surrogate-tier smoke: fit -> registry hit -> refusal.

Drives the microsecond answering tier (``repro.surrogate``) end to end
in well under a minute, through the same two calls the HTTP service
makes (``registry.lookup(spec)``, then ``model.simulation(spec)``):

* fit a surrogate over a small 3-knob box from golden fast-path sweeps
  and check the fitted error bound honors the declared tolerance;
* register it in a registry and answer an in-region spec — zero Newton
  iterations, ``surrogate_hits == 1`` in telemetry, and the closed-form
  peak within the fitted error bound of the golden simulation;
* look up an out-of-region spec and check the registry refuses it with
  a reason whose category names the violated check (``validity-box``),
  the refusal that sends a server down its full simulation path.

Run via ``make surrogate-smoke``; CI's ``surrogate-smoke`` job executes
it next to the surrogate test suite.
"""

import dataclasses

from repro.analysis.driver_bank import DriverBankSpec
from repro.analysis.simulate import simulate_many, simulate_ssn_cache_clear
from repro.process import get_technology
from repro.surrogate import SurrogateRegistry, fit_surrogate


def check(condition, label):
    if not condition:
        raise SystemExit(f"surrogate smoke FAILED: {label}")
    print(f"  ok: {label}")


def main() -> None:
    tech = get_technology("tsmc018")

    print("fitting over a quick 3-knob box")
    model = fit_surrogate(
        tech,
        n_drivers=(2, 6),
        inductance=(2e-9, 5e-9),
        rise_time=(0.4e-9, 0.7e-9),
        samples_per_knob=2,
    )
    check(model.error.n_points >= 8, "training grid covered the box corners")
    check(model.error.max_abs_percent <= model.tolerance_percent,
          f"fitted bound {model.error.max_abs_percent:.2f}% within "
          f"{model.tolerance_percent:.0f}% tolerance")

    registry = SurrogateRegistry()
    registry.register(model)
    in_region = DriverBankSpec(
        technology=tech, n_drivers=4, inductance=3e-9, rise_time=0.5e-9
    )
    print("in-region query answered from the registry")
    found, reason = registry.lookup(in_region)
    check(found is model and reason is None, "registry lookup hit the model")
    hit = found.simulation(in_region)
    check(hit.telemetry.extras.get("surrogate_hits") == 1,
          "telemetry tagged the surrogate hit")
    check(hit.telemetry.newton_iterations == 0,
          "closed-form answer spent zero Newton iterations")
    simulate_ssn_cache_clear()
    (golden,) = simulate_many([in_region], engine="scalar")
    error = abs(hit.peak_voltage - golden.peak_voltage) / golden.peak_voltage
    check(error * 100.0 <= model.error.max_abs_percent,
          f"peak error {error * 100.0:.2f}% within the fitted bound")

    print("out-of-region query is refused")
    out_region = dataclasses.replace(in_region, n_drivers=40)
    found, reason = registry.lookup(out_region)
    check(found is None and reason is not None, "registry lookup refused")
    category = reason.split(":", 1)[0]
    check(category == "validity-box",
          f"refusal names the violated check ({category})")

    print("surrogate smoke passed")


if __name__ == "__main__":
    main()
