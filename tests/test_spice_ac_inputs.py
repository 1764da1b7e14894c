"""Input validation of the AC small-signal analysis."""

import pytest

from repro.spice import Circuit, Dc, ac_analysis


def _divider():
    c = Circuit()
    c.vsource("Vin", "a", "0", Dc(0.0))
    c.resistor("R1", "a", "b", 1e3)
    c.resistor("R2", "b", "0", 1e3)
    return c


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_frequency_rejected(bad):
    """NaN slips past ``f <= 0`` and inf would stamp at ``dt = 0``."""
    with pytest.raises(ValueError, match="finite"):
        ac_analysis(_divider(), [1e6, bad], "Vin", bias_time=None)


def test_non_source_stimulus_rejected():
    with pytest.raises(ValueError, match="not a V or I source"):
        ac_analysis(_divider(), [1e6], "R1", bias_time=None)
