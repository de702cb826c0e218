import os
from concurrent.futures import Future

import pytest
from hypothesis import settings

import seedsense._pool as pool_mod

# Property tests that set no example count take it from the loaded profile: "tier1"
# unless pytest is run with --hypothesis-profile=ci, which draws more examples.
settings.register_profile("tier1", max_examples=60, deadline=None, derandomize=True)
settings.register_profile("ci", max_examples=300, deadline=None, derandomize=True)
settings.load_profile("tier1")


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPUs the worker pool may use: ``usable_cpus(n)`` gives this process an
    affinity set of n CPUs; ``usable_cpus(None)`` makes a platform that reports neither
    an affinity set nor a CPU count."""
    def set_cpus(count):
        if count is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
    return set_cpus


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the worker pool with an in-process stand-in; returns the pool sizes opened."""
    sizes = []

    class SerialPool:
        def __init__(self, width):
            sizes.append(width)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pool_mod, "_executor", SerialPool)
    return sizes
