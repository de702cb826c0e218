"""The one worker-process pool behind the engine's parallel loops."""

from __future__ import annotations

import os
from typing import Callable, Iterable, Sequence


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform reports
    one (a ``taskset`` or cpuset narrows it), otherwise the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor(width: int):
    """A pool of `width` worker processes. ``concurrent.futures`` is imported only
    here, so a command that opens no pool does not pay for loading it."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=width)


def _listed(fn: Callable[..., Iterable], chunk: Sequence, *args) -> list:
    return list(fn(chunk, *args))


def map_strided(fn: Callable[..., Iterable], items: Sequence, workers: int, *args) -> list:
    """``fn(chunk, *args)`` over the strided chunks ``items[w::W]``, results in item order.

    ``fn`` yields one result per item of its chunk, listed where it runs.
    ``W`` is `workers` capped at the usable CPUs and at the number of items;
    with ``W <= 1`` the whole sequence goes to one call in this process.
    """
    width = min(workers, _usable_cpus(), len(items))
    if width <= 1:
        return _listed(fn, items, *args)
    with _executor(width) as pool:
        futures = [pool.submit(_listed, fn, items[w::width], *args) for w in range(width)]
        results = [None] * len(items)
        for w, future in enumerate(futures):
            results[w::width] = future.result()
    return results
