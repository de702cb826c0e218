"""Exhaustive spaced-seed enumeration and ranking by exact sensitivity.

Candidate evaluation is embarrassingly parallel. All candidates share one
population, counted before any worker starts, so they are ranked by hit count
(descending), then by pattern, and parallel and serial runs rank identically.
A seed and its reversal always have the same hit probability (reversal is a
bijection on both alignment models that preserves detection), so only one of
each mirror pair is evaluated, and that evaluation builds and sweeps one
scanner, the mirror's when the seed's required positions sit past its
center (see ``sensitivity._scanner``).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from ._pool import map_strided
from .alignments import DetectionStrategy, Record, ScoringScheme, Seed
from .counting import (HOMOGENEOUS, InfeasibleScore, check_model, count_homogeneous,
                       count_unconstrained)
from .sensitivity import hit_probability_profile


class SearchSpec(Record):
    weight: int
    max_span: int
    scheme: ScoringScheme
    length: int
    score: int
    model: str = HOMOGENEOUS
    top_k: int = 10

    def __post_init__(self) -> None:
        if self.weight < 2:
            raise ValueError("weight must be >= 2")
        if self.max_span < self.weight:
            raise ValueError("max_span must be >= weight")
        check_model(self.model, self.score)
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


class RankedSeed(Record):
    seed: Seed
    numerator: int
    denominator: int


class RankedSeeds(Record):
    entries: tuple[RankedSeed, ...]
    candidate_count: int


def enumerate_seeds(weight: int, max_span: int) -> Iterator[Seed]:
    """Every canonical seed of the given weight with span in [weight, max_span],
    ordered by span, then lexicographically by pattern."""
    if weight < 2:
        raise ValueError("weight must be >= 2")
    if max_span < weight:
        raise ValueError("max_span must be >= weight")
    for span in range(weight, max_span + 1):
        patterns = []
        for interior in combinations(range(1, span - 1), weight - 2):
            cells = ["0"] * span
            cells[0] = cells[-1] = "1"
            for i in interior:
                cells[i] = "1"
            patterns.append("".join(cells))
        patterns.sort()
        for pattern in patterns:
            yield Seed(pattern)


def _hit_counts(patterns: list[str], spec: SearchSpec, population: int) -> list[int]:
    hits = []
    for pattern in patterns:
        report = hit_probability_profile(DetectionStrategy(Seed(pattern)), spec.scheme,
                                         spec.score, [spec.length], spec.model)[0]
        if report.denominator != population:
            raise RuntimeError(f"{pattern}: population {report.denominator}, not {population}")
        hits.append(report.numerator)
    return hits


def find_optimal(spec: SearchSpec, threads: int | None = None) -> RankedSeeds:
    """Rank every candidate seed by exact hit probability under the spec's model.

    Candidates are spread over `threads` worker processes, at most one per
    usable CPU (default: one per usable CPU); the ranking is the same for any count.
    """
    count = count_homogeneous if spec.model == HOMOGENEOUS else count_unconstrained
    population = count(spec.scheme, spec.length, spec.score)
    # an empty population fails every candidate alike, so it fails before any worker starts
    if population == 0:
        raise InfeasibleScore.empty(spec.scheme, spec.length, spec.score, spec.model)
    patterns = [seed.pattern for seed in enumerate_seeds(spec.weight, spec.max_span)]
    representatives = sorted({min(p, p[::-1]) for p in patterns})
    # no thread count: as many workers as there are candidates, capped at the usable CPUs
    workers = len(representatives) if threads is None else threads
    hits = dict(zip(representatives,
                    map_strided(_hit_counts, representatives, workers, spec, population)))
    kept = sorted(patterns, key=lambda p: (-hits[min(p, p[::-1])], p))[: spec.top_k]
    entries = tuple(RankedSeed(Seed(p), hits[min(p, p[::-1])], population) for p in kept)
    return RankedSeeds(entries, len(patterns))
