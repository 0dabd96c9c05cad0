import concurrent.futures
import os

import pytest


@pytest.fixture
def pool_spy(monkeypatch):
    """Record the max_workers of every process pool started from here on;
    the pools are real ones."""
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kw):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kw)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started


@pytest.fixture
def usable_cpus(monkeypatch):
    """A function that sets the number of CPUs this process may use."""

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: n)

    return set_cpus
