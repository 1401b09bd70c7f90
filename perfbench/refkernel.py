"""Reference kernel: a fixed piece of work that gauges the host's speed.

The benchmark runs on shared hosts whose speed drifts by tens of percent
for seconds to minutes at a time; the same round can take 0.6 or 1.2 times
its usual time depending on when it runs. The kernel is timed next to every
round and every set-up, and the benchmark reports times in *reference
seconds*: raw seconds times ``NOMINAL_S`` over the kernel's time at that
moment. A drift that slows the round and the kernel alike cancels; a
change to fabcp moves the round and not the kernel. Raw times are kept on
the details line.

The kernel mixes the kinds of work the workloads do, in roughly equal
parts: dense linear algebra on a 50 x 50 matrix, a Nelder-Mead fit, an
interpreted loop and array sorts. It uses numpy and scipy only, never
fabcp, and its inputs are fixed, so no change to the package moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import minimize

# About the kernel's usual time on a 2-vCPU Intel Xeon host (Python 3.11,
# numpy 2.4, one BLAS thread; 0.065 s when that host runs fast). It only
# fixes the unit: a reference second is a second of a host on which the
# kernel takes NOMINAL_S.
NOMINAL_S = 0.1


def _rosenbrock(p):
    return (1.0 - p[0]) ** 2 + 100.0 * (p[1] - p[0] ** 2) ** 2


class ReferenceKernel:
    """The kernel's inputs, built once; :meth:`run` runs the kernel once."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20220418)
        a = rng.normal(size=(50, 50))
        self.spd = a @ a.T + 50.0 * np.eye(50)
        self.rhs = np.ones(50)
        self.values = rng.normal(size=200_000)
        self.run()  # first calls load LAPACK and the optimizer

    def run(self) -> None:
        for _ in range(60):
            np.linalg.eigh(self.spd)
            np.linalg.solve(self.spd, self.rhs)
        for _ in range(5):
            minimize(_rosenbrock, [-1.2, 1.0], method="Nelder-Mead",
                     options={"xatol": 1e-10, "fatol": 1e-12, "maxfev": 3000})
        total = 0
        for i in range(250_000):
            total += i * i % 7
        for _ in range(12):
            np.sort(self.values)

    def time(self, runs: int = 1) -> float:
        """Mean time of ``runs`` back-to-back runs."""
        t0 = time.perf_counter()
        for _ in range(runs):
            self.run()
        return (time.perf_counter() - t0) / runs

    def median_time(self, runs: int = 3) -> float:
        return statistics.median(self.time() for _ in range(runs))
