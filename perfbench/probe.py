"""Host-speed probes: fixed work timed beside every measurement.

The benchmark runs on a few vCPUs of a shared host whose speed drifts with
other tenants' load: the same configuratrix call takes 55 ms in one second
and 95 ms a few seconds later, with CPU time equal to wall time, so the
drift is contention, not descheduling. A fixed pure-Python computation
(fraction-free Gaussian elimination on a seeded integer matrix plus a
``Fraction`` sum, about 2 ms, nothing from symres) slows by the same factor
at the same moment: timed right beside each item, over the 3 s windows of
a 24 s run the ratio of item time to probe time ranged over 5% of its
median where the item time ranged over 17%.

Starting a process tracks the host differently: within seconds the vCPU
switches between a fast and a slow state 1.6x apart, and the compute probe
follows it fully while an interpreter start slows by less. So work that
starts processes is scaled by a second probe of its own kind: a fresh
interpreter importing a fixed set of standard modules, about 85 ms from
spawn to exit. Timed beside ``import symres.cli``, the ratio of the two
spread by 1% (IQR over median of 3 s windows) where the raw time spread
by 18%.

So each measured time is divided by the median probe time around it and
multiplied by the probe's reference time: the benchmark reports times as
they would read on a host where the probe takes that long. A change to
symres moves them by the same share as it moves the raw times; the host's
drift cancels. ``pin()`` keeps the benchmark and its children on one vCPU,
so the probe always measures the vCPU the work runs on.
"""
from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

#: Probes on each side of a measurement that its scale rests on.
WINDOW = 3

_RNG = random.Random(20101003)
_MATRIX = tuple(tuple(_RNG.randint(-10 ** 6, 10 ** 6) for _ in range(14)) for _ in range(14))


def compute() -> tuple[int, Fraction]:
    """The compute probe's fixed work: a Bareiss determinant and a Fraction sum."""
    a = [list(row) for row in _MATRIX]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(i, i * i + 1)
    return a[-1][-1], total


def spawn() -> None:
    """The spawn probe's fixed work: a fresh interpreter importing standard modules."""
    subprocess.run([sys.executable, "-c", "import argparse, dataclasses, decimal, fractions, json"],
                   check=True, stdin=subprocess.DEVNULL)


#: Each probe with the time, in seconds, that the reported times are scaled to.
PROBES = {"compute": (compute, 0.002), "spawn": (spawn, 0.085)}


def pin() -> None:
    """Keep this process, and the processes it starts, on one vCPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class HostClock:
    """Probe samples taken between measurements, and the scale they give.

    Call ``sample()`` before each measurement and once after the last;
    measurement i then lies between samples i and i + 1.
    """

    def __init__(self, kind: str) -> None:
        self.work, self.reference_s = PROBES[kind]
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - start)

    def scale(self, i: int) -> float:
        """Reference time over the median of the WINDOW probes each side of measurement i."""
        window = self.samples[max(0, i - WINDOW + 1):i + WINDOW + 1]
        return self.reference_s / statistics.median(window)
