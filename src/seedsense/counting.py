"""Arbitrary-precision counting of score-constrained positive walks.

One table family backs everything else here: ``CountTableD`` counts walk
suffixes that culminate at a fixed final score, with intermediate ordinates
confined to the open band (0, score). Dense, O(score * horizon) space.

A free score needs no table of its own. Homogeneous alignments of length n
are the disjoint union, over the positive totals a length-n alignment can
reach, of the fixed-score populations, so free-score counts are sums of
fixed-score counts.

Counts are exact Python integers; they outgrow 64 bits around length 70 for
dense schemes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .alignments import ScoringScheme

class InfeasibleScore(ValueError):
    """No alignment of the requested length and score exists under the scheme."""


@dataclass(frozen=True)
class Composition:
    matches: int
    mismatches: int


def feasible_composition(scheme: ScoringScheme, n: int, score: int) -> Composition | None:
    """The unique (matches, mismatches) with m + q = n and m*s - q*p = score, if any."""
    if n < 1:
        raise ValueError("length must be >= 1")
    s, p = scheme.match_score, scheme.mismatch_penalty
    m, rem = divmod(score + n * p, s + p)
    if rem or not 0 <= m <= n:
        return None
    return Composition(m, n - m)


class CountTableD:
    """Counts of length-k walk suffixes from ordinate y culminating exactly at `score`.

    The start and end points are corners; every intermediate ordinate must lie
    strictly inside (0, score). For k > 1 the two branches are guarded
    independently: a match step is allowed iff it stays below the target, a
    mismatch step iff it stays positive. A one-step suffix exists iff the
    match step lands exactly on the target.
    """

    def __init__(self, scheme: ScoringScheme, score: int, horizon: int):
        if score < 1:
            raise ValueError("target score must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.scheme = scheme
        self.score = score
        self.horizon = horizon
        s, p = scheme.match_score, scheme.mismatch_penalty
        rows = [[0] * score for _ in range(horizon + 1)]
        if score >= s:
            rows[1][score - s] = 1
        for k in range(2, horizon + 1):
            prev = rows[k - 1]
            row = rows[k]
            for y in range(score):
                c = prev[y + s] if y + s < score else 0
                if y > p:
                    c += prev[y - p]
                row[y] = c
        self._rows = rows

    def count(self, y: int, k: int) -> int:
        if not 0 <= k <= self.horizon:
            raise ValueError(f"steps {k} outside table horizon {self.horizon}")
        if k == 0:
            return 1 if y == self.score else 0
        if y < 0 or y >= self.score:
            return 0
        return self._rows[k][y]


def positive_scores(scheme: ScoringScheme, n: int) -> range:
    """Every positive total score an alignment of length n can have, ascending."""
    if n < 1:
        raise ValueError("length must be >= 1")
    s, p = scheme.match_score, scheme.mismatch_penalty
    # m matches give m*s - (n-m)*p; the fewest that stay positive is m = floor(n*p/(s+p)) + 1
    low = n * p // (s + p) + 1
    return range(low * (s + p) - n * p, n * s + 1, s + p)


def count_homogeneous(scheme: ScoringScheme, n: int, score: int | None = None) -> int:
    """Exact number of homogeneous alignments of length n (and score, when fixed).

    Infeasible (n, score) combinations count 0 rather than raising, so sums
    over scores stay clean.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if score is None:
        # one table at a time, so memory stays O(n * score)
        return sum(count_homogeneous(scheme, n, t) for t in positive_scores(scheme, n))
    if score < 1 or feasible_composition(scheme, n, score) is None:
        return 0
    return CountTableD(scheme, score, n).count(0, n)


def count_unconstrained(scheme: ScoringScheme, n: int, score: int) -> int:
    """Number of all binary sequences of length n with the given score."""
    comp = feasible_composition(scheme, n, score)
    return 0 if comp is None else math.comb(n, comp.matches)
