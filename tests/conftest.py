"""Shared fixtures: technology cards and cached model fits.

Model extraction sweeps the golden device over a few hundred bias points;
doing it once per session (it is also lru-cached inside
``repro.experiments.common``) keeps the suite fast.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.experiments.common import FittedModels, fitted_models
from repro.process import TSMC018, get_technology


@pytest.fixture(scope="session")
def tech018():
    return TSMC018


@pytest.fixture(scope="session")
def models018() -> FittedModels:
    return fitted_models("tsmc018")


@pytest.fixture(scope="session")
def asdm018(models018):
    return models018.asdm


@pytest.fixture(scope="session", params=["tsmc018", "tsmc025", "tsmc035"])
def any_tech(request):
    return get_technology(request.param)


#: Frozen waveforms of the retired seed engine (see tests/data/README.md).
SEED_REFERENCE = pathlib.Path(__file__).parent / "data" / "legacy_reference.npz"


class FrozenRun:
    """One case of the legacy reference fixture, read like a TransientResult."""

    def __init__(self, arrays: dict, case: str):
        self._arrays = arrays
        self._case = case
        self.times = arrays[f"{case}/times"]
        self.step_rejections = int(arrays[f"{case}/step_rejections"])
        prefix = f"{case}/v/"
        self.node_names = [k[len(prefix):] for k in arrays if k.startswith(prefix)]

    def voltage(self, node: str) -> np.ndarray:
        return self._arrays[f"{self._case}/v/{node}"]

    def current(self, element: str) -> np.ndarray:
        return self._arrays[f"{self._case}/i/{element}"]


@pytest.fixture(scope="session")
def seed_reference():
    """Factory: ``seed_reference(case)`` returns that case as a FrozenRun."""
    with np.load(SEED_REFERENCE) as data:
        arrays = {k: data[k] for k in data.files}
    return lambda case: FrozenRun(arrays, case)
