"""How fast the host runs right now, read from a fixed reference kernel.

On a shared host the same work can take twice as long from one minute
to the next, for reasons outside the program.  The benchmark therefore
times a fixed kernel between pieces of each workload and reports every
end-to-end time at the reference speed: wall time multiplied by
NOMINAL_S / (the mean kernel time measured alongside it).  The mean,
not the median, so that a sample cut by preemption counts as the
workload's own time does.  When the
host runs the kernel in NOMINAL_S, the two are equal.  The kernel calls
no code of the program, so a change to the program moves the metrics
by exactly as much as it moves the wall time.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

STEPS = 50            # Riccati steps per sample: about 1.4 ms
NOMINAL_S = 1.5e-3    # kernel time at the reference speed

_rng = np.random.default_rng(20170516)
_A = np.eye(4) + 0.05 * _rng.standard_normal((4, 4))
_B = 0.1 * _rng.standard_normal((4, 2))
_Q = np.diag([1.0, 2.0, 0.5, 0.1])
_R = np.diag([0.3, 0.2])


def kernel(steps: int = STEPS) -> float:
    """A Riccati recursion on fixed 4x4 / 4x2 matrices.

    Small numpy products, a 2x2 solve and Python arithmetic: the mix the
    planners' backward passes run, at a fixed size.
    """
    p = _Q.copy()
    acc = 0.0
    for _ in range(steps):
        btp = _B.T @ p
        gain = np.linalg.solve(_R + btp @ _B, btp @ _A)
        p = _Q + _A.T @ p @ (_A - _B @ gain)
        p = 0.5 * (p + p.T)
        acc += float(p[0, 0])
    return acc


class Speedometer:
    """Kernel samples taken between pieces of a workload."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - t0)

    def spent(self, start: int = 0, stop: int | None = None) -> float:
        """Wall seconds the samples start..stop took."""
        return sum(self.samples[start:stop])

    def scale(self, start: int = 0, stop: int | None = None) -> float:
        """Reference-speed seconds per wall second over start..stop."""
        return NOMINAL_S / statistics.fmean(self.samples[start:stop])


@contextmanager
def paced(owner, attr: str, meter: Speedometer):
    """Rebind owner.attr so that every call first takes a sample."""
    original = getattr(owner, attr)

    def call(*args, **kwargs):
        meter.sample()
        return original(*args, **kwargs)

    setattr(owner, attr, call)
    try:
        yield
    finally:
        setattr(owner, attr, original)
