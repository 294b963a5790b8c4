"""Timing utilities and speedup accounting for the parallel experiments."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Timer", "time_callable", "SpeedupPoint", "SpeedupReport"]


class Timer:
    """Simple wall-clock timer usable as a context manager.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None


def time_callable(
    func: Callable[[], object],
    *,
    repeats: int = 3,
    warmup: int = 1,
) -> tuple[float, float]:
    """Time a zero-argument callable.

    Returns the (mean, standard deviation) of the wall-clock time over
    ``repeats`` measured runs, after ``warmup`` unmeasured runs.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if warmup < 0:
        raise ValueError("warmup must be non-negative")
    for _ in range(warmup):
        func()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        samples.append(time.perf_counter() - start)
    arr = np.asarray(samples)
    return float(arr.mean()), float(arr.std())


@dataclass(frozen=True)
class SpeedupPoint:
    """One point of a speedup curve."""

    n_workers: int
    seconds: float

    def speedup(self, serial_seconds: float) -> float:
        return 0.0 if self.seconds <= 0 else serial_seconds / self.seconds

    def efficiency(self, serial_seconds: float) -> float:
        return 0.0 if self.n_workers == 0 else self.speedup(serial_seconds) / self.n_workers


@dataclass
class SpeedupReport:
    """Speedup curve of a fixed workload across worker counts.

    The serial reference is the measurement at ``n_workers == 1`` if present,
    otherwise the supplied ``serial_seconds``.
    """

    points: list[SpeedupPoint] = field(default_factory=list)
    serial_seconds: float | None = None

    def add(self, n_workers: int, seconds: float) -> None:
        if n_workers <= 0:
            raise ValueError("n_workers must be positive")
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        self.points.append(SpeedupPoint(n_workers=n_workers, seconds=seconds))

    def _reference(self) -> float:
        for point in self.points:
            if point.n_workers == 1:
                return point.seconds
        if self.serial_seconds is not None:
            return self.serial_seconds
        raise ValueError("no serial reference available (add a 1-worker point or serial_seconds)")

    def speedups(self) -> dict[int, float]:
        """``{n_workers: speedup}`` relative to the serial reference."""
        ref = self._reference()
        return {p.n_workers: p.speedup(ref) for p in sorted(self.points, key=lambda p: p.n_workers)}

    def efficiencies(self) -> dict[int, float]:
        """``{n_workers: parallel efficiency}``."""
        ref = self._reference()
        return {
            p.n_workers: p.efficiency(ref)
            for p in sorted(self.points, key=lambda p: p.n_workers)
        }
