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
def serial_pool(monkeypatch):
    """Replace the worker pool with an in-process stand-in; returns the pool sizes opened."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pool_mod, "ProcessPoolExecutor", SerialPool)
    return sizes
