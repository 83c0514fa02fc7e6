"""Deterministic load profiles.

A load profile describes the current drawn from a battery as a piecewise
constant function of time.  Profiles are consumed by the analytical battery
models (:mod:`repro.battery.kibam` and friends): a battery model walks
through the profile's segments and integrates its internal state segment by
segment.

The paper's deterministic experiments only need two kinds of profiles --
constant loads and 50 %-duty-cycle square waves -- but the generic
:class:`PiecewiseConstantLoad` makes it possible to evaluate arbitrary
current traces (for example, traces sampled from a stochastic workload).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstantLoad",
    "LoadProfile",
    "PiecewiseConstantLoad",
    "SquareWaveLoad",
]


class LoadProfile(ABC):
    """A piecewise-constant current demand over time (amperes, seconds)."""

    @abstractmethod
    def segments(self, horizon: float) -> Iterator[tuple[float, float]]:
        """Yield ``(duration, current)`` pairs covering ``[0, horizon]``.

        The durations sum to *horizon* (the final segment is truncated).
        """

    @abstractmethod
    def current_at(self, time: float) -> float:
        """Return the current drawn at time *time* (seconds)."""

    def mean_current(self, horizon: float) -> float:
        """Return the time-averaged current over ``[0, horizon]``."""
        total_charge = 0.0
        for duration, current in self.segments(horizon):
            total_charge += duration * current
        return total_charge / float(horizon)

    def sample(self, times: Sequence[float]) -> np.ndarray:
        """Return the current at each of the given *times*."""
        return np.array([self.current_at(t) for t in np.asarray(times, dtype=float)])


@dataclass(frozen=True)
class ConstantLoad(LoadProfile):
    """A constant current draw.

    Parameters
    ----------
    current:
        Discharge current in amperes (must be non-negative).
    """

    current: float

    def __post_init__(self) -> None:
        if self.current < 0:
            raise ValueError("the discharge current must be non-negative")

    def segments(self, horizon: float) -> Iterator[tuple[float, float]]:
        if horizon <= 0:
            return
        yield float(horizon), float(self.current)

    def current_at(self, time: float) -> float:
        return float(self.current)


@dataclass(frozen=True)
class SquareWaveLoad(LoadProfile):
    """A periodic on/off square-wave load.

    This is the workload used for Table 1 and Figure 2 of the paper: the
    device alternates between drawing ``current_on`` and ``current_off``
    with frequency ``frequency`` (in Hz) and duty cycle ``duty_cycle`` (the
    fraction of the period spent in the on-phase; the paper uses 0.5).

    Parameters
    ----------
    current_on:
        Current during the on-phase (amperes).
    frequency:
        Number of on/off cycles per second.
    duty_cycle:
        Fraction of each period spent drawing ``current_on``.
    current_off:
        Current during the off-phase (default zero).
    start_with_on:
        Whether the profile starts with the on-phase (default) or off-phase.
    """

    current_on: float
    frequency: float
    duty_cycle: float = 0.5
    current_off: float = 0.0
    start_with_on: bool = True

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("the frequency must be positive")
        if not 0.0 < self.duty_cycle < 1.0:
            raise ValueError("the duty cycle must lie strictly between 0 and 1")
        if self.current_on < 0 or self.current_off < 0:
            raise ValueError("currents must be non-negative")

    @property
    def period(self) -> float:
        """Length of one on/off cycle in seconds."""
        return 1.0 / self.frequency

    @property
    def on_duration(self) -> float:
        """Length of the on-phase in seconds."""
        return self.period * self.duty_cycle

    @property
    def off_duration(self) -> float:
        """Length of the off-phase in seconds."""
        return self.period * (1.0 - self.duty_cycle)

    def _phases(self) -> tuple[tuple[float, float], tuple[float, float]]:
        on_phase = (self.on_duration, float(self.current_on))
        off_phase = (self.off_duration, float(self.current_off))
        if self.start_with_on:
            return on_phase, off_phase
        return off_phase, on_phase

    def segments(self, horizon: float) -> Iterator[tuple[float, float]]:
        remaining = float(horizon)
        first, second = self._phases()
        while remaining > 0:
            for duration, current in (first, second):
                if remaining <= 0:
                    return
                step = min(duration, remaining)
                yield step, current
                remaining -= step

    def current_at(self, time: float) -> float:
        position = float(time) % self.period
        first, second = self._phases()
        if position < first[0]:
            return first[1]
        return second[1]


class PiecewiseConstantLoad(LoadProfile):
    """An arbitrary piecewise-constant load given by durations and currents.

    Parameters
    ----------
    durations:
        Sequence of segment lengths in seconds (all positive).
    currents:
        Sequence of currents in amperes, one per segment.
    repeat:
        If ``True`` the pattern repeats periodically; otherwise the last
        current is held forever after the final segment.
    """

    def __init__(self, durations: Sequence[float], currents: Sequence[float], *, repeat: bool = False):
        durations_array = np.asarray(durations, dtype=float)
        currents_array = np.asarray(currents, dtype=float)
        if durations_array.ndim != 1 or durations_array.size == 0:
            raise ValueError("durations must be a non-empty one-dimensional sequence")
        if durations_array.shape != currents_array.shape:
            raise ValueError("durations and currents must have the same length")
        if np.any(durations_array <= 0):
            raise ValueError("all segment durations must be positive")
        if np.any(currents_array < 0):
            raise ValueError("all currents must be non-negative")
        self._durations = durations_array
        self._currents = currents_array
        self._repeat = bool(repeat)
        self._boundaries = np.concatenate(([0.0], np.cumsum(durations_array)))

    @property
    def total_duration(self) -> float:
        """Sum of all segment durations (length of one pattern)."""
        return float(self._boundaries[-1])

    @property
    def repeat(self) -> bool:
        """Whether the pattern repeats periodically."""
        return self._repeat

    def segments(self, horizon: float) -> Iterator[tuple[float, float]]:
        remaining = float(horizon)
        while remaining > 0:
            for duration, current in zip(self._durations, self._currents):
                if remaining <= 0:
                    return
                step = min(float(duration), remaining)
                yield step, float(current)
                remaining -= step
            if not self._repeat:
                if remaining > 0:
                    yield remaining, float(self._currents[-1])
                return

    def current_at(self, time: float) -> float:
        position = float(time)
        if self._repeat:
            position = position % self.total_duration
        elif position >= self.total_duration:
            return float(self._currents[-1])
        index = int(np.searchsorted(self._boundaries, position, side="right") - 1)
        index = min(max(index, 0), self._currents.size - 1)
        return float(self._currents[index])
