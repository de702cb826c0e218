"""Uniform random generation of homogeneous alignments.

One sampler serves both fixed and free scores. It walks a ``CountTableD``
left to right; at each step the exact match probability is the ratio of the
suffix count after a match step to the suffix count of the current state.
Steps are decided by comparing a uniform integer draw below the denominator
against the numerator, so no floating point is involved and the
distribution over the target set is exactly uniform.

A free score is the disjoint union of its fixed-score classes, so a
free-score sample first picks a class with probability proportional to its
size, by one integer draw below the total population (the recursive method
of Flajolet, Zimmermann & Van Cutsem), then walks that class's table.

Sample i always draws from the child stream ``stream.spawn(i)``, never from
the base stream directly. Output therefore depends only on (seed, sample
index) and is identical no matter how samples are split across workers.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from .alignments import Alignment, ScoringScheme, is_homogeneous, score as alignment_score
from .counting import CountTableD, InfeasibleScore, feasible_composition, positive_scores

DEFAULT_REJECTION_LIMIT = 20
DEFAULT_ATTEMPT_BUDGET = 1_000_000

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class GenerationBudgetExceeded(RuntimeError):
    """Rejection sampling exhausted its attempt budget without enough accepts."""


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer (Steele, Lea & Flood); used only to derive child seeds
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


class RandomStream:
    """Deterministic 64-bit-seeded randomness source.

    Wraps the Mersenne Twister (random.Random) and draws only via
    getrandbits, whose output is stable across platforms and Python
    releases. Child stream i is seeded with the (i+1)-th output of the
    SplitMix64 sequence started at this stream's seed.
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed
        self._rng = random.Random(seed)

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection on getrandbits."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound == 1:
            return 0
        k = (bound - 1).bit_length()
        getrandbits = self._rng.getrandbits
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        return r

    def spawn(self, index: int) -> RandomStream:
        if index < 0:
            raise ValueError("index must be nonnegative")
        return RandomStream(_splitmix64((self.seed + (index + 1) * _GOLDEN) & _MASK64))


def _fixed_table(scheme: ScoringScheme, n: int, score: int) -> CountTableD:
    if n < 1:
        raise ValueError("length must be >= 1")
    if score < 1 or feasible_composition(scheme, n, score) is None:
        raise InfeasibleScore(f"no alignment of length {n} has score {score} under {scheme}")
    table = CountTableD(scheme, score, n)
    if table.count(0, n) == 0:
        raise InfeasibleScore(f"no homogeneous alignment of length {n} has score {score}")
    return table


def _tables(scheme: ScoringScheme, n: int, score: int | None) -> list[CountTableD]:
    """The table of a fixed score, or one table per nonempty score class when free."""
    if score is not None:
        return [_fixed_table(scheme, n, score)]
    tables = (CountTableD(scheme, t, n) for t in positive_scores(scheme, n))
    return [table for table in tables if table.count(0, n)]


def _iter_bits(tables: list[CountTableD], n: int, count: int, stream: RandomStream,
               start: int = 0) -> Iterator[int]:
    """Sample bit strings drawn uniformly from the union of the tables' populations.

    With several tables, a sample's first draw picks one with probability
    proportional to its population (concatenated rank ranges); the walk then
    runs inside it. A single table takes no pick draw.
    """
    s = tables[0].scheme.match_score
    p = tables[0].scheme.mismatch_penalty
    sizes = [table.count(0, n) for table in tables]
    total = sum(sizes)
    for i in range(start, start + count):
        randbelow = stream.spawn(i).randbelow
        table = tables[0]
        if len(tables) > 1:
            r = randbelow(total)
            for table, size in zip(tables, sizes):
                if r < size:
                    break
                r -= size
        target = table.score
        rows = table._rows
        bits = 0
        y = 0
        for k in range(n, 0, -1):
            up = y + s
            if k > 1:
                num = rows[k - 1][up] if up < target else 0
            else:
                num = 1 if up == target else 0
            if randbelow(rows[k][y]) < num:
                bits |= 1 << (n - k)
                y = up
            else:
                y -= p
        yield bits


def _sample_range(match: int, mismatch: int, n: int, score: int | None,
                  seed: int, start: int, count: int) -> list[int]:
    tables = _tables(ScoringScheme(match, mismatch), n, score)
    return list(_iter_bits(tables, n, count, RandomStream(seed), start))


def _sample(scheme: ScoringScheme, n: int, score: int | None, count: int,
            stream: RandomStream, workers: int) -> list[Alignment]:
    if n < 1:
        raise ValueError("length must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    tables = _tables(scheme, n, score)
    workers = min(workers, os.cpu_count() or 1)
    if workers > 1 and count > 1:
        ranges = _index_ranges(count, workers)
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            parts = pool.map(
                _sample_range,
                *zip(*[(scheme.match_score, scheme.mismatch_penalty, n, score,
                        stream.seed, lo, hi - lo) for lo, hi in ranges]),
            )
        return [Alignment(n, bits) for part in parts for bits in part]
    return [Alignment(n, bits) for bits in _iter_bits(tables, n, count, stream)]


def _index_ranges(count: int, workers: int) -> list[tuple[int, int]]:
    span, extra = divmod(count, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + span + (1 if w < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def sample_fixed(scheme: ScoringScheme, n: int, score: int, count: int,
                 stream: RandomStream, workers: int = 1) -> list[Alignment]:
    """Uniform samples over homogeneous alignments of length n and exact score.

    Output is identical for any worker count; workers only split the sample
    index range, and at most one worker per CPU is started.
    """
    return _sample(scheme, n, score, count, stream, workers)


def sample_free(scheme: ScoringScheme, n: int, count: int,
                stream: RandomStream, workers: int = 1) -> list[Alignment]:
    """Uniform samples over all homogeneous alignments of length n, any score."""
    return _sample(scheme, n, None, count, stream, workers)


def sample_rejection(scheme: ScoringScheme, n: int, score: int | None, count: int,
                     stream: RandomStream, limit: int = DEFAULT_REJECTION_LIMIT,
                     max_attempts: int = DEFAULT_ATTEMPT_BUDGET) -> list[Alignment]:
    """Uniform sampling by accept-reject; a test oracle only.

    Draws length-n bit strings from the stream and keeps the homogeneous ones
    (with the requested score, when fixed). The acceptance rate decays
    exponentially with n, hence the hard length limit and attempt budget.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > limit:
        raise ValueError(f"length {n} exceeds the rejection-sampling limit {limit}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    out: list[Alignment] = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            raise GenerationBudgetExceeded(
                f"{len(out)}/{count} accepted after {attempts} attempts"
            )
        attempts += 1
        candidate = Alignment(n, stream.getrandbits(n))
        if score is not None and alignment_score(candidate, scheme) != score:
            continue
        if is_homogeneous(candidate, scheme):
            out.append(candidate)
    return out
