from concurrent.futures import Future

import pytest

import seedsense._pool as pool_mod


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
