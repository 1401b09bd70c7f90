"""Shared test configuration.

BLAS threading is pinned to one thread before numpy loads: the matrices in
this package are small enough that OpenBLAS spin-wait synchronization
costs far more than it saves (an order of magnitude on a two-core box).
"""

import os

import pytest

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


@pytest.fixture
def pin_cpus(monkeypatch):
    """``pin_cpus(k)`` makes the process's CPU affinity mask read as k CPUs.

    ``area_pipeline`` shares its areas out over as many processes as the
    mask holds CPUs, so this sets how many it uses.
    """
    def pin(k: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return pin


@pytest.fixture
def one_cpu(pin_cpus):
    """Pin the process to one CPU: the pipeline then fits every area in-process.

    Tests that count calls through monkeypatched module attributes need it,
    because calls made in a forked worker are counted in the worker.
    """
    pin_cpus(1)
