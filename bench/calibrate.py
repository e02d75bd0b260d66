"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts: the same
computation runs up to 1.5-2x slower for stretches of seconds to minutes, in
CPU time as much as in wall time. A fixed unit of work that does not touch
belltol runs after every job, and a job's speed factor is the mean time of
the units within ``WINDOW_S`` of it over ``REF_UNIT_S``. The end-to-end times
are divided by these factors, so they read as seconds on the machine at
reference speed, and a change of belltol still moves them in full.

A unit mixes the three kinds of work the workloads do: interpreted Python
(the seesaw and the simplex loops), a numpy contraction in C (the behaviour
einsum) and passes over a 4 MB array (the state matrices). The array is
small so that it adds little to the run's peak memory.

Print the median time of 200 units, the source of ``REF_UNIT_S``, with:

    python3 bench/calibrate.py
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median unit time on the reference machine named in README.md
REF_UNIT_S = 0.0180
# units follow each job until they have taken this share of its time
SHARE = 0.15
# units this close to a job, before or after it, give its speed factor
WINDOW_S = 5.0

_RNG = np.random.default_rng(2018)
_SMALL = _RNG.standard_normal((112, 112)) + 1j * _RNG.standard_normal((112, 112))
_BUFFER = np.ones((512, 512), dtype=complex)


def unit() -> float:
    """Time of one fixed unit of work, in seconds."""
    start = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += (i * i) % 7
    np.einsum("ij,jk->ik", _SMALL, _SMALL)
    for _ in range(10):
        np.multiply(_BUFFER, 1.0, out=_BUFFER)
        _BUFFER.sum()
    return time.perf_counter() - start


class Calibration:
    """The units of one run, each kept as (midpoint, duration)."""

    def __init__(self) -> None:
        self.units: list[tuple[float, float]] = []

    def follow(self, job_s: float) -> None:
        """Run units after a job of ``job_s`` seconds, at least one."""
        spent = 0.0
        while not spent or spent < SHARE * job_s:
            start = time.perf_counter()
            elapsed = unit()
            self.units.append((start + elapsed / 2.0, elapsed))
            spent += elapsed

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Mean time of the units within WINDOW_S of [start, end] over the
        reference: above 1 on a slow machine. All units when none is near,
        and when no span is given."""
        near = [d for m, d in self.units if start - WINDOW_S <= m <= end + WINDOW_S]
        return statistics.fmean(near or [d for _, d in self.units]) / REF_UNIT_S


if __name__ == "__main__":
    unit()
    print(f"median unit time: {statistics.median(unit() for _ in range(200)):.5f} s")
