"""Unit tests for the SSN validation-circuit builder."""

import dataclasses

import pytest

from repro.analysis import DriverBankSpec, build_driver_bank
from repro.analysis.driver_bank import (
    CAPACITOR_NAME,
    GROUND_BOUNCE_NODE,
    INDUCTOR_NAME,
    RESISTOR_NAME,
)


@pytest.fixture
def spec(tech018):
    return DriverBankSpec(
        technology=tech018, n_drivers=4, inductance=5e-9, rise_time=0.5e-9
    )


class TestSpec:
    def test_slope(self, spec):
        assert spec.slope == pytest.approx(1.8 / 0.5e-9)

    def test_driver_names_collapsed(self, spec):
        assert spec.driver_names() == ["M1"]

    def test_driver_names_explicit(self, spec):
        explicit = dataclasses.replace(spec, collapse=False)
        assert explicit.driver_names() == ["M1", "M2", "M3", "M4"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", [
        "inductance", "rise_time", "capacitance", "resistance",
        "load_capacitance", "driver_strength", "input_offsets",
    ])
    def test_non_finite_values_rejected(self, spec, field, value):
        """NaN passes every ``x <= 0`` check; it must not reach the engine."""
        if field == "input_offsets":
            value = (0.0, value, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(spec, **{field: value})

    def test_validation(self, tech018):
        with pytest.raises(ValueError):
            DriverBankSpec(technology=tech018, n_drivers=0, inductance=5e-9, rise_time=1e-9)
        with pytest.raises(ValueError):
            DriverBankSpec(technology=tech018, n_drivers=1, inductance=-1e-9, rise_time=1e-9)
        with pytest.raises(ValueError):
            DriverBankSpec(
                technology=tech018, n_drivers=1, inductance=5e-9, rise_time=1e-9,
                capacitance=0.0,
            )
        with pytest.raises(ValueError):
            DriverBankSpec(
                technology=tech018, n_drivers=1, inductance=5e-9, rise_time=1e-9,
                resistance=-1.0,
            )
        for strength in (0.0, -1.0, False):
            with pytest.raises(ValueError, match="driver_strength"):
                DriverBankSpec(
                    technology=tech018, n_drivers=1, inductance=5e-9,
                    rise_time=1e-9, driver_strength=strength,
                )


class TestBuild:
    def test_l_only_topology(self, spec):
        circuit = build_driver_bank(spec)
        names = {el.name for el in circuit.elements}
        assert INDUCTOR_NAME in names
        assert CAPACITOR_NAME not in names
        assert RESISTOR_NAME not in names
        assert "M1" in names
        assert "Vin" in names

    def test_capacitor_included_when_specified(self, spec):
        circuit = build_driver_bank(dataclasses.replace(spec, capacitance=1e-12))
        assert CAPACITOR_NAME in {el.name for el in circuit.elements}

    def test_resistor_in_series_when_specified(self, spec):
        circuit = build_driver_bank(dataclasses.replace(spec, resistance=10e-3))
        names = {el.name for el in circuit.elements}
        assert RESISTOR_NAME in names
        # The inductor must no longer terminate at true ground.
        inductor = circuit.element(INDUCTOR_NAME)
        assert inductor.nodes[1] != 0

    def test_collapsed_device_width(self, spec):
        circuit = build_driver_bank(spec)
        device = circuit.element("M1").model
        expected = spec.technology.reference_width * spec.n_drivers
        assert device.params.w == pytest.approx(expected)

    def test_collapsed_load_scaled(self, spec):
        circuit = build_driver_bank(spec)
        assert circuit.element("CL1").farads == pytest.approx(
            spec.load_capacitance * spec.n_drivers
        )

    def test_explicit_builds_n_devices(self, spec):
        circuit = build_driver_bank(dataclasses.replace(spec, collapse=False))
        mosfets = [el.name for el in circuit.elements if el.name.startswith("M")]
        assert len(mosfets) == 4

    def test_sources_and_bulks_on_bounce_node(self, spec):
        circuit = build_driver_bank(spec)
        m = circuit.element("M1")
        ssn = circuit.node_id(GROUND_BOUNCE_NODE)
        _, _, source, bulk = m.nodes
        assert source == ssn
        assert bulk == ssn

    def test_loads_initially_charged_to_vdd(self, spec):
        circuit = build_driver_bank(spec)
        assert circuit.element("CL1").ic == pytest.approx(spec.technology.vdd)
