"""Uniform random generation of homogeneous alignments.

One sampler serves both fixed and free scores, by unranking (the recursive
method of Flajolet, Zimmermann & Van Cutsem). A sample draws one uniform rank
below the population size and walks a ``CountTableD`` left to right: it takes
the match step when the rank is below the number of completions after a
match, and otherwise subtracts that number and takes the mismatch step. Each
member of the population has exactly one rank, so a uniform rank gives an
exactly uniform alignment, with integer arithmetic only.

A free score is the disjoint union of its fixed-score classes. Their rank
ranges are concatenated in ascending score order: the rank first picks a
class by subtracting class sizes, and the remainder is unranked in that
class's table. The uniform model of ``mc`` unranks a fixed-size subset of
mismatch positions the same way, over Pascal's triangle.

The rank of sample i is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3"): its 64-bit words are the SplitMix64 sequence
started at the child seed ``stream.spawn(i).seed``, and a try that is not
below the bound is rejected. A ``RandomStream`` is only that validated seed;
nothing draws from it directly. Output therefore depends only on (seed,
sample index) and is identical no matter how samples are split across
workers.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ._pool import map_strided
from .alignments import Alignment, ScoringScheme
from .counting import CountTableD, InfeasibleScore, feasible_composition, positive_scores

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer (Steele, Lea & Flood)
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _child_seed(seed: int, index: int) -> int:
    # the (index+1)-th output of the SplitMix64 sequence started at seed
    return _splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


class RandomStream:
    """A validated 64-bit seed for the samplers.

    Sample i draws its rank from the SplitMix64 sequence started at the
    child seed ``spawn(i).seed``, the (i+1)-th output of the SplitMix64
    sequence started at this stream's seed (see ``_rank``).
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed

    def spawn(self, index: int) -> RandomStream:
        if index < 0:
            raise ValueError("index must be nonnegative")
        return RandomStream(_child_seed(self.seed, index))


def _rank(seed: int, index: int, bound: int) -> int:
    """Uniform integer in [0, bound) for sample `index` of the stream seeded `seed`.

    The words are the SplitMix64 sequence started at the child seed, which
    is ``RandomStream(seed).spawn(index).seed``. Starting from the scrambled
    child seed keeps the words of neighbouring indices apart; stepping
    ``seed + (index+1)*GOLDEN`` directly would make a sample's retry word the
    next sample's first word. A k-bit bound takes ceil(k/64) words per try,
    and a try that is not below the bound is rejected.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    words = -(-k // 64)
    drop = 64 * words - k
    state = _child_seed(seed, index)
    while True:
        r = 0
        for _ in range(words):
            state = (state + _GOLDEN) & _MASK64
            r = r << 64 | _splitmix64(state)
        r >>= drop
        if r < bound:
            return r


def _ranks(seed: int, bound: int, indices: Iterable[int]) -> Iterator[int]:
    return (_rank(seed, i, bound) for i in indices)


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


def _population(tables: list[CountTableD], n: int) -> int:
    return sum(table.count(0, n) for table in tables)


def _unrank(classes: list[tuple[int, list[list[int]]]], on_match: int, on_mismatch: int,
            ranks: Iterable[int]) -> Iterator[int]:
    """The bit string of each rank below the classes' total size.

    Each class is (size, steps); the classes' rank ranges are concatenated in
    list order, and a rank's class is picked by subtracting sizes. In a
    class, ``steps[j][y]`` is the number of completions that take a match at
    step j from ordinate y. The walk starts at ordinate 0 and moves it by
    `on_match` or `on_mismatch`.
    """
    for r in ranks:
        for size, steps in classes:
            if r < size:
                break
            r -= size
        bits = 0
        bit = 1
        y = 0
        for after_match in steps:
            num = after_match[y]
            if r < num:
                bits |= bit
                y += on_match
            else:
                r -= num
                y += on_mismatch
            bit <<= 1
        yield bits


def _match_counts(table: CountTableD, n: int) -> list[list[int]]:
    # completions of a length-n walk after a match at each step, by ordinate:
    # the table row of the steps left, shifted down by the match score
    s = table.scheme.match_score
    rows = table._rows
    last = [0] * table.score
    last[table.score - s] = 1
    return [rows[k][s:] + [0] * s for k in range(n - 1, 0, -1)] + [last]


def _iter_bits(tables: list[CountTableD], n: int, ranks: Iterable[int]) -> Iterator[int]:
    """The homogeneous alignment of each rank below the tables' total population."""
    classes = [(table.count(0, n), _match_counts(table, n)) for table in tables]
    scheme = tables[0].scheme
    return _unrank(classes, scheme.match_score, -scheme.mismatch_penalty, ranks)


def _iter_uniform_bits(n: int, mismatches: int, ranks: Iterable[int]) -> Iterator[int]:
    """For each rank below comb(n, mismatches), the length-n bit string with
    that many zeros (the uniform model).

    The ordinate counts the mismatches placed so far; with u placed before
    step j, comb(n - j - 1, mismatches - u) completions take a match there.
    """
    steps = [[math.comb(n - j - 1, mismatches - u) for u in range(mismatches + 1)]
             for j in range(n)]
    return _unrank([(math.comb(n, mismatches), steps)], 0, 1, ranks)


def _sample_range(indices: range, match: int, mismatch: int, n: int, score: int | None,
                  seed: int) -> list[int]:
    tables = _tables(ScoringScheme(match, mismatch), n, score)
    return list(_iter_bits(tables, n, _ranks(seed, _population(tables, n), indices)))


def _sample(scheme: ScoringScheme, n: int, score: int | None, count: int,
            stream: RandomStream, workers: int) -> list[Alignment]:
    if n < 1:
        raise ValueError("length must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if score is not None:
        _fixed_table(scheme, n, score)  # reject an infeasible score before any worker starts
    bits = map_strided(_sample_range, range(count), workers, scheme.match_score,
                       scheme.mismatch_penalty, n, score, stream.seed)
    return [Alignment(n, b) for b in bits]


def sample_fixed(scheme: ScoringScheme, n: int, score: int, count: int,
                 stream: RandomStream, workers: int = 1) -> list[Alignment]:
    """Uniform samples over homogeneous alignments of length n and exact score.

    Output is identical for any worker count; worker w of W draws every W-th
    sample from index w, and at most one worker per CPU is started.
    """
    return _sample(scheme, n, score, count, stream, workers)


def sample_free(scheme: ScoringScheme, n: int, count: int,
                stream: RandomStream, workers: int = 1) -> list[Alignment]:
    """Uniform samples over all homogeneous alignments of length n, any score."""
    return _sample(scheme, n, None, count, stream, workers)
