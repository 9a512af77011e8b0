"""Host speed reference: a fixed load that does not depend on the program.

The benchmark runs on hosts shared with other tenants, whose load can
slow every instruction down by half for minutes at a time, so a raw
wall-clock time says as much about the neighbours as about the program.
``run.py`` therefore runs this reference load after each of the
program's calls, for a fixed share of the time the call took, and
scales each call by how fast the reference ran just before and just
after it: a call of ``t`` seconds beside reference samples of ``r``
seconds on average counts as ``t * NOMINAL_S / r``, its time on a host
that runs one sample in ``NOMINAL_S`` seconds.  The host's speed
changes from one second to the next, so the reference is sampled
beside every call rather than once per run.

The load is of the kind the program's annealer executes: a seeded
``random.Random`` driving Python-level moves, float arithmetic and
numpy reductions over small arrays.  It is fixed, so a change to the
program cannot change its time.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, List

import numpy as np

#: Moves of one reference sample.
STEPS = 10_000
#: Seconds one sample is scaled to.  A 2-vCPU Xeon host with Python
#: 3.11 and numpy 2.4 runs one in 0.075 s when its neighbours are idle
#: and in 0.15 s when they are busy.
NOMINAL_S = 0.1
#: Share of the program's measured time spent on reference samples.
SHARE = 0.1

_GAIN = np.random.default_rng(20240611).random((9, 200)) + 0.1


def load() -> float:
    """One sample of the reference load; returns its fixed result."""
    rng = random.Random(20240611)
    power = np.ones(200)
    state = [rng.random() for _ in range(256)]
    best = 0.0
    for _ in range(STEPS):
        index = rng.randrange(256)
        delta = math.exp(-state[index]) - 0.5
        if delta > 0.0 or rng.random() < 0.3:
            state[index] = (state[index] + delta) % 1.0
        received = _GAIN[rng.randrange(9)] * power
        rate = float(np.log2(1.0 + received / (received.sum() - received + 0.01)).sum())
        if rate > best or rng.random() < 0.2:
            power[rng.randrange(200)] = 0.5 + state[index]
            best = rate
    return best


class HostSpeed:
    """Scales the program's call times by the reference speed around them."""

    def __init__(
        self,
        work: Callable[[], object] = load,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.work = work
        self.clock = clock
        self.work()  # warm-up, not recorded
        self.samples: List[float] = []
        self.scaled: List[float] = []
        self.before = self._burst(3 * NOMINAL_S)

    def _burst(self, seconds: float) -> float:
        """Run reference samples for ``seconds``, at least one; mean sample time."""
        taken: List[float] = []
        while not taken or sum(taken) < seconds:
            start = self.clock()
            self.work()
            taken.append(self.clock() - start)
        self.samples += taken
        return sum(taken) / len(taken)

    def scale(self, call_s: float) -> float:
        """Sample right after a call of ``call_s`` seconds; its scaled time.

        The call is scaled by the mean of the reference samples taken
        just before and just after it, so a change of the host's speed
        between calls is followed call by call.
        """
        after = self._burst(SHARE * call_s)
        reference = (self.before + after) / 2.0
        self.before = after
        self.scaled.append(call_s * NOMINAL_S / reference)
        return self.scaled[-1]

    @property
    def factor(self) -> float:
        """Mean sample time over ``NOMINAL_S``: how much slower the host ran."""
        return sum(self.samples) / len(self.samples) / NOMINAL_S
