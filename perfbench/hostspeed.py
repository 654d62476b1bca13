"""How fast the host ran during a run, probed between timed operations.

The benchmark runs on a share of a host whose speed drifts by a third and
more over minutes, on both CPUs at once (see the README's findings).  A run
of tens of seconds cannot average that out.  So a run also times a probe, a
fixed piece of CPU work that is part pure Python and part numpy like the
program but runs none of its code, a few times between its operations.
The median probe time over ``REFERENCE_S`` is the run's slowdown, and the
run's times are divided by it: they read as on the host at full speed.  The
probe never runs while the program does.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds the probe took on the machine the README's figures come from
#: when it ran at full speed; a slowdown of 1 means the host runs that fast.
REFERENCE_S = 0.035

#: Probes taken at each gap between operations.
PROBES_PER_GAP = 3

_HOURS = np.arange(8760.0)


def probe_s() -> float:
    """Seconds one run of the probe takes now.

    A pure-Python loop, then numpy steps on hourly series of one year, the
    array size and kind of call the weather and profile code makes.
    """
    rng = np.random.default_rng(0)
    started = time.perf_counter()
    total = 0.0
    for index in range(200_000):
        total += index * index
    for _ in range(60):
        noise = rng.normal(0.0, 1.0, _HOURS.size)
        series = 2.0 * np.cos(2.0 * np.pi * _HOURS / 24.0) + noise
        series = np.clip(series, -1.0, 1.0) + np.repeat(noise[:365], 24)
        total += float(np.maximum(series, 0.0).mean())
    return time.perf_counter() - started


class Host:
    """The probe times of one run."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self.sample()

    def sample(self, count: int = PROBES_PER_GAP) -> None:
        """Probe the host at a gap between operations."""
        self.probes.extend(probe_s() for _ in range(count))

    def slowdown(self) -> float:
        return statistics.median(self.probes) / REFERENCE_S
