"""Source waveform shapes for independent V/I sources.

Each shape is a callable ``value(t)`` plus a ``breakpoints()`` list of corner
times; the transient engine forces time steps to land exactly on breakpoints
so that piecewise-linear corners (e.g. the end of the input ramp, where the
maximum SSN occurs) are never straddled.  ``values(times)`` evaluates a
shape over an array of times (the batched engine's per-instance clocks),
elementwise bit for bit equal to the scalar call.
"""

from __future__ import annotations

import dataclasses

import numpy as np


class SourceShape:
    """Base class for source waveforms."""

    def __call__(self, t: float) -> float:
        raise NotImplementedError

    def values(self, times: np.ndarray) -> np.ndarray:
        """The value at every time of ``times``; the built-in shapes
        override this elementwise loop with one vectorized pass."""
        return np.array([self(t) for t in times])

    def breakpoints(self) -> list[float]:
        """Times at which the waveform has slope discontinuities."""
        return []


@dataclasses.dataclass(frozen=True)
class Dc(SourceShape):
    """Constant value."""

    value: float

    def __call__(self, t: float) -> float:
        return self.value

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.full(np.shape(times), self.value, dtype=float)


@dataclasses.dataclass(frozen=True)
class Ramp(SourceShape):
    """Linear ramp from v0 to v1 starting at ``t_start``, lasting ``t_rise``.

    This is the paper's input stimulus: ``Vin(t) = sr * t`` with slope
    ``sr = (v1 - v0) / t_rise``, held at ``v1`` afterwards.
    """

    v0: float
    v1: float
    t_start: float
    t_rise: float

    def __post_init__(self):
        if self.t_rise <= 0:
            raise ValueError("ramp rise time must be positive")

    @property
    def slope(self) -> float:
        return (self.v1 - self.v0) / self.t_rise

    def __call__(self, t: float) -> float:
        if t <= self.t_start:
            return self.v0
        if t >= self.t_start + self.t_rise:
            return self.v1
        return self.v0 + self.slope * (t - self.t_start)

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        ramp = self.v0 + self.slope * (t - self.t_start)
        return np.where(t <= self.t_start, self.v0,
                        np.where(t >= self.t_start + self.t_rise, self.v1, ramp))

    def breakpoints(self) -> list[float]:
        return [self.t_start, self.t_start + self.t_rise]


@dataclasses.dataclass(frozen=True)
class Pulse(SourceShape):
    """SPICE-style pulse: delay, rise, width, fall, period (single period)."""

    v0: float
    v1: float
    delay: float
    rise: float
    width: float
    fall: float

    def __post_init__(self):
        if min(self.rise, self.fall) <= 0 or self.width < 0:
            raise ValueError("pulse rise/fall must be positive and width >= 0")

    def __call__(self, t: float) -> float:
        t = t - self.delay
        if t <= 0:
            return self.v0
        if t < self.rise:
            return self.v0 + (self.v1 - self.v0) * t / self.rise
        t -= self.rise
        if t < self.width:
            return self.v1
        t -= self.width
        if t < self.fall:
            return self.v1 + (self.v0 - self.v1) * t / self.fall
        return self.v0

    def values(self, times: np.ndarray) -> np.ndarray:
        # The scalar branches in order, each on its own shifted clock.
        t = np.asarray(times, dtype=float) - self.delay
        t_width = t - self.rise
        t_fall = t_width - self.width
        return np.select(
            [t <= 0, t < self.rise, t_width < self.width, t_fall < self.fall],
            [self.v0, self.v0 + (self.v1 - self.v0) * t / self.rise, self.v1,
             self.v1 + (self.v0 - self.v1) * t_fall / self.fall],
            default=self.v0)

    def breakpoints(self) -> list[float]:
        edges = np.cumsum([self.delay, self.rise, self.width, self.fall])
        return [float(e) for e in edges]


class Pwl(SourceShape):
    """Piecewise-linear waveform through (t, v) points; flat outside."""

    def __init__(self, points):
        pts = [(float(t), float(v)) for t, v in points]
        if len(pts) < 2:
            raise ValueError("a PWL source needs at least two points")
        times = [t for t, _ in pts]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("PWL times must be strictly increasing")
        self._t = np.array(times)
        self._v = np.array([v for _, v in pts])

    def __repr__(self) -> str:
        return f"Pwl({list(zip(self._t.tolist(), self._v.tolist()))!r})"

    def __call__(self, t: float) -> float:
        return float(np.interp(t, self._t, self._v))

    def values(self, times: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(times, dtype=float), self._t, self._v)

    def breakpoints(self) -> list[float]:
        return [float(t) for t in self._t]
