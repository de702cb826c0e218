"""The one worker-process pool behind the engine's parallel loops."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform reports
    one (a ``taskset`` or cpuset narrows it), otherwise the host's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_strided(fn: Callable[..., list], items: Sequence, workers: int, *args) -> list:
    """``fn(chunk, *args)`` over the strided chunks ``items[w::W]``, results in item order.

    ``fn`` returns one result per item of its chunk. ``W`` is `workers`
    capped at the usable CPUs and at the number of items; with ``W <= 1`` the
    whole sequence goes to one call in this process, so no process starts.
    """
    width = min(workers, _usable_cpus(), len(items))
    if width <= 1:
        return fn(items, *args)
    with ProcessPoolExecutor(max_workers=width) as pool:
        futures = [pool.submit(fn, items[w::width], *args) for w in range(width)]
        results = [None] * len(items)
        for w, future in enumerate(futures):
            results[w::width] = future.result()
    return results
