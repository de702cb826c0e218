"""In-memory spans around the calls the CLI and the search module make into
each layer of the package.

Wrapping happens from outside: the names that ``seedsense.cli`` and
``seedsense.search`` import are swapped for recording wrappers while a traced
phase runs, and restored afterwards. Nothing inside the package is touched.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable

import seedsense.cli
import seedsense.search

# (module the name is imported into, name, layer it belongs to)
WRAPPED = (
    (seedsense.cli, "hit_probability_profile", "sensitivity"),
    (seedsense.cli, "mc_estimate", "sensitivity"),
    (seedsense.cli, "find_optimal", "search"),
    (seedsense.cli, "count_homogeneous", "counting"),
    (seedsense.cli, "CountTableD", "counting"),
    (seedsense.cli, "sample_fixed", "sampling"),
    (seedsense.cli, "sample_free", "sampling"),
    (seedsense.search, "hit_probability_profile", "sensitivity"),
)
LAYERS = ("cli", "sensitivity", "search", "counting", "sampling")


def _attrs(name: str, args: tuple, kwargs: dict, result) -> dict:
    """What a span needs to be classified: the model, occurrence count, lengths, sizes."""
    if name == "hit_probability_profile":
        strategy, _, _, lengths = args[:4]
        model = args[4] if len(args) > 4 else kwargs.get("model", "homogeneous")
        return {"model": model, "occurrences": strategy.required_occurrences,
                "lengths": len(lengths)}
    if name == "mc_estimate":
        return {"samples": args[1]}
    if name in ("sample_fixed", "sample_free"):
        count = args[3] if name == "sample_fixed" else args[2]
        return {"samples": count, "workers": kwargs.get("workers", 1)}
    if name == "count_homogeneous":
        return {"length": args[1],
                "free": (args[2] if len(args) > 2 else kwargs.get("score")) is None}
    if name == "find_optimal" and result is not None:
        return {"candidates": result.candidate_count}
    return {}


class Tracer:
    """Spans kept in memory: index, name, layer, start, end, parent index,
    operation id and phase, plus the attributes that classify the call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op: int | None = None
        self.phase = ""

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        index = len(self.spans)
        record = {"index": index, "name": name, "layer": layer,
                  "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None, "op": self.op,
                  "phase": self.phase, **attrs}
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, fn: Callable, site: str, name: str, layer: str) -> Callable:
        def traced(*args, **kwargs):
            with self.span(f"{site}->{layer}.{name}", layer, site=site) as record:
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    record.update(_attrs(name, args, kwargs, result))
        return traced

    @contextmanager
    def installed(self):
        saved = [(module, name, getattr(module, name)) for module, name, _ in WRAPPED]
        try:
            for module, name, layer in WRAPPED:
                site = module.__name__.rsplit(".", 1)[-1]
                setattr(module, name, self._wrap(getattr(module, name), site, name, layer))
            yield self
        finally:
            for module, name, original in saved:
                setattr(module, name, original)

    def self_times(self, spans: list[dict]) -> dict[str, float]:
        """Seconds per layer spent in the layer's own spans, minus time in their child spans."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = dict.fromkeys(LAYERS, 0.0)
        for s in spans:
            totals[s["layer"]] += (s["end"] - s["start"]) - child_time[s["index"]]
        return totals
