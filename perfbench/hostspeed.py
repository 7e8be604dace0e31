"""Sample how fast the host runs while a repetition runs.

On a shared host the speed of one core moves by up to 2x, in spells of
seconds to minutes, as other tenants come and go.  In one minute on a
2-core VM, a fixed 5 ms interpreter job ran at about 4.7 ms in some
spells and 7.5 ms in others, and the two cores changed spells
independently.  Averages over a run therefore depend on how much of it
fell in slow spells.

``Probe`` runs a short fixed job every ``interval`` seconds of wall
time, from a SIGALRM handler, in the process that runs the workload.
The samples see the same spells as the workload between them.  The
workload's time is then scaled to the reference speed: the time left
after taking out the probe's own time, times the mean of
``reference / sample`` (the host's mean speed over the interval, in
reference units).  The jobs use no pmqkd code, so a change to pmqkd
cannot change them.

There are two jobs because the two kinds of work respond differently to
contention:

- ``python``: scalar float arithmetic and function calls in the
  interpreter, like the sweep's ``optimize_mu``/``key_rate`` and the
  ``import`` that dominates set-up;
- ``numpy``: a PCG64 block draw, elementwise passes and a tally, like
  the Monte Carlo run.

``REFERENCE_S`` holds each job's time, as sampled inside a running
workload, at a quiet moment of the host the benchmark was written on: the
lowest per-repetition mean of about 150 repetitions on a 2-core shared VM
(Python 3.11.7, NumPy 2.4.6).  A scaled time is therefore about what the
repetition takes on that host at its quietest.
"""
from __future__ import annotations

import math
import signal
import time

REFERENCE_S = {"python": 0.00105, "numpy": 0.0018}

_TWO_PI = 2.0 * math.pi


def _entropy(x: float) -> float:
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def python_job() -> None:
    acc = 0.0
    for i in range(1, 3001):
        x = (i % 997 + 1) / 1000.0 * 0.999
        acc += _entropy(x) + math.exp(-x) * math.sqrt(x)
    if not math.isfinite(acc):
        raise AssertionError("probe job diverged")


def numpy_job() -> None:
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(12345))
    u = rng.random((5, 1 << 15))
    j = (u[0] * 16).astype(np.int8)
    p = np.cos((u[1] - u[2]) * _TWO_PI) ** 2 * 0.05
    outcome = (u[3] < p).astype(np.int8) + 2 * (u[4] < 0.05 - p).astype(np.int8)
    counts = np.bincount(j[outcome == 1], minlength=16)
    if counts.sum() == 0:
        raise AssertionError("probe job diverged")


JOBS = {"python": python_job, "numpy": numpy_job}


class Probe:
    """Runs ``JOBS[kind]`` every ``interval`` s of wall time while started.

    Python runs signal handlers between bytecodes, so a tick that falls
    inside a long C call runs when the call returns.  ``start`` runs the
    job once, unsampled, so that first-call costs are not sampled.
    """

    def __init__(self, kind: str, interval: float):
        self.kind = kind
        self.interval = interval
        self.samples: list = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        JOBS[self.kind]()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        JOBS[self.kind]()
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> dict:
        """Stops sampling; returns the probe's own seconds and mean speed.

        The speed is 1.0 when the job ran at its reference time; a run
        too short for a single sample reads 1.0 as well.
        """
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        ref = REFERENCE_S[self.kind]
        speed = sum(ref / s for s in self.samples) / len(self.samples) if self.samples else 1.0
        return {"kind": self.kind, "spent_s": sum(self.samples), "speed": speed,
                "samples": len(self.samples)}
