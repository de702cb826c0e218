"""Exhaustive spaced-seed enumeration and ranking by exact sensitivity.

Candidate evaluation is embarrassingly parallel; results are merged and
sorted by exact probability (descending) with lexicographic pattern order as
the tie-break, so parallel and serial runs rank identically. A seed and its
reversal always have the same hit probability (reversal is a bijection on
both alignment models that preserves detection), so only one of each mirror
pair is evaluated, and that evaluation sweeps the smaller of the pair's two
scanners (see ``sensitivity._scanner``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from ._pool import map_strided
from .alignments import DetectionStrategy, ScoringScheme, Seed
from .counting import InfeasibleScore, count_homogeneous, count_unconstrained
from .sensitivity import HOMOGENEOUS, MODELS, hit_probability_profile


@dataclass(frozen=True)
class SearchSpec:
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
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.model == HOMOGENEOUS and self.score < 1:
            raise ValueError("homogeneous alignments require score >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class RankedSeed:
    seed: Seed
    numerator: int
    denominator: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)


@dataclass(frozen=True)
class RankedSeeds:
    entries: tuple[RankedSeed, ...]
    candidate_count: int
    elapsed_seconds: float


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


def seed_count(weight: int, max_span: int) -> int:
    """Closed form for the enumeration size."""
    return sum(math.comb(span - 2, weight - 2) for span in range(weight, max_span + 1))


def _evaluate_patterns(patterns: list[str], spec: SearchSpec) -> list[tuple[int, int]]:
    out = []
    for pattern in patterns:
        report = hit_probability_profile(DetectionStrategy(Seed(pattern)), spec.scheme,
                                         spec.score, [spec.length], spec.model)[0]
        out.append((report.numerator, report.denominator))
    return out


def find_optimal(spec: SearchSpec, threads: int | None = None) -> RankedSeeds:
    """Rank every candidate seed by exact hit probability under the spec's model.

    Candidates are spread over `threads` worker processes, at most one per
    usable CPU (default: one per usable CPU); the ranking is the same for any count.
    """
    started = time.perf_counter()
    # an empty population fails every candidate alike, so it fails before any worker starts
    count = count_homogeneous if spec.model == HOMOGENEOUS else count_unconstrained
    if count(spec.scheme, spec.length, spec.score) == 0:
        raise InfeasibleScore.empty(spec.scheme, spec.length, spec.score, spec.model)
    patterns = [seed.pattern for seed in enumerate_seeds(spec.weight, spec.max_span)]
    representatives = sorted({min(p, p[::-1]) for p in patterns})
    # no thread count: as many workers as there are candidates, capped at the usable CPUs
    workers = len(representatives) if threads is None else threads
    results = map_strided(_evaluate_patterns, representatives, workers, spec)
    evaluated = dict(zip(representatives, results))
    ranked = []
    for pattern in patterns:
        num, den = evaluated[min(pattern, pattern[::-1])]
        ranked.append(RankedSeed(Seed(pattern), num, den))
    ranked.sort(key=lambda r: (Fraction(-r.numerator, r.denominator), r.seed.pattern))
    return RankedSeeds(tuple(ranked[: spec.top_k]), len(patterns),
                       time.perf_counter() - started)
