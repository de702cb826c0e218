"""Uniform random generation of homogeneous alignments.

Every sample, whether ``generate`` or ``mc`` asks for it, is drawn by
``_draw`` from a population built by ``_population``: a fixed-score or
free-score set of homogeneous alignments, or every sequence of one score
(the uniform model of ``mc``). A population is a list of disjoint classes
whose rank ranges are concatenated in order, one per score for a free score.
``_unrank`` maps a rank below the population size to its member by the
recursive method of Flajolet, Zimmermann & Van Cutsem: the rank first picks
a class by subtracting class sizes, then walks left to right, taking the
match step when the rank is below the number of members that match there,
and otherwise subtracting that number and taking the mismatch step. Each
member has exactly one rank, so a uniform rank gives an exactly uniform
sample, with integer arithmetic only.

The rank of sample i is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3"): ``_ranks`` reads its 64-bit words from the
SplitMix64 sequence started at the child seed ``stream.spawn(i).seed``, and
rejects a try that is not below the bound. A ``RandomStream`` is only that
validated seed; nothing draws from it directly. Output therefore depends
only on (seed, sample index) and is identical no matter how samples are
split across workers, each of which builds its own population.

A sample stays an int bit string through the draw and the workers;
``sample_fixed`` and ``sample_free`` return each one as its 0/1 text, the
``str`` of its ``Alignment``, with no ``Alignment`` object built per sample.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

from ._pool import map_strided
from .alignments import ScoringScheme
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
    sequence started at this stream's seed (see ``_ranks``).
    """

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        self.seed = seed

    def spawn(self, index: int) -> RandomStream:
        if index < 0:
            raise ValueError("index must be nonnegative")
        return RandomStream(_child_seed(self.seed, index))


def _ranks(seed: int, indices: Iterable[int], bound: int) -> Iterator[int]:
    """A uniform integer in [0, bound) for each sample index of the stream seeded `seed`.

    The words of sample i are the SplitMix64 sequence started at its child
    seed, ``RandomStream(seed).spawn(i).seed``. Starting from the scrambled
    child seed keeps the words of neighbouring indices apart; stepping
    ``seed + (i+1)*GOLDEN`` directly would make a sample's retry word the
    next sample's first word. A k-bit bound takes ceil(k/64) words per try,
    and a try that is not below the bound is rejected. Both finalizers
    (``_child_seed`` and each word's ``_splitmix64``) are inlined.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    words = -(-k // 64)
    drop = 64 * words - k
    for i in indices:
        x = (seed + (i + 1) * _GOLDEN) & _MASK64
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
        x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
        state = x ^ (x >> 31)
        while True:
            r = 0
            for _ in range(words):
                state = (state + _GOLDEN) & _MASK64
                x = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
                x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
                r = r << 64 | (x ^ (x >> 31))
            r >>= drop
            if r < bound:
                yield r
                break


def _match_counts(table: CountTableD, n: int) -> list[list[int]]:
    # completions of a length-n walk after a match at each step, by ordinate:
    # the table row of the steps left, shifted down by the match score
    s = table.scheme.match_score
    rows = table._rows
    last = [0] * table.score
    last[table.score - s] = 1
    return [rows[k][s:] + [0] * s for k in range(n - 1, 0, -1)] + [last]


_Population = tuple[list[tuple[int, list[list[int]]]], int, int]


def _population(scheme: ScoringScheme, n: int, score: int | None,
                uniform: bool = False) -> _Population:
    """The population a sample is drawn from, as ``(classes, on_match, on_mismatch)``.

    Each class is (size, steps): ``steps[j][y]`` is the number of the class's
    members that take a match at step j from ordinate y, and a walk moves its
    ordinate by `on_match` or `on_mismatch`. A homogeneous population has one
    class per score (each positive score, ascending, when `score` is None),
    walked on the ordinates of that score's ``CountTableD``. The uniform
    population, every sequence of the score, is one class whose ordinate
    counts the mismatches placed: with u placed before step j,
    comb(n - j - 1, q - u) of the sequences with q mismatches take a match.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if uniform:
        comp = feasible_composition(scheme, n, score)
        if comp is None:
            raise InfeasibleScore(f"no alignments of length {n} and score {score} under {scheme}")
        q = comp.mismatches
        steps = [[math.comb(n - j - 1, q - u) for u in range(q + 1)] for j in range(n)]
        return [(math.comb(n, q), steps)], 0, 1
    scores = positive_scores(scheme, n) if score is None else [score]
    tables = (CountTableD(scheme, t, n) for t in scores
              if t >= 1 and feasible_composition(scheme, n, t) is not None)
    classes = [(table.count(0, n), _match_counts(table, n)) for table in tables
               if table.count(0, n)]
    if not classes:
        raise InfeasibleScore(
            f"no homogeneous alignment of length {n} has score {score} under {scheme}")
    return classes, scheme.match_score, -scheme.mismatch_penalty


def _unrank(population: _Population, ranks: Iterable[int]) -> Iterator[int]:
    """The bit string of each rank below the population's size.

    The classes' rank ranges are concatenated in list order, and a rank's
    class is picked by subtracting sizes. The walk starts at ordinate 0; at
    step j it takes the match when the rank is below ``steps[j][y]``, and
    otherwise subtracts that count and takes the mismatch.
    """
    classes, on_match, on_mismatch = population
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


def _draw(indices: Iterable[int], scheme: ScoringScheme, n: int, score: int | None, seed: int,
          uniform: bool = False) -> list[int]:
    """The bit strings of samples `indices` of the stream seeded `seed`.

    Every sampler draws through here: a worker builds its own population and
    unranks the ``_ranks`` of its indices.
    """
    population = _population(scheme, n, score, uniform)
    bound = sum(size for size, _ in population[0])
    return list(_unrank(population, _ranks(seed, indices, bound)))


def _sample(scheme: ScoringScheme, n: int, score: int | None, count: int,
            stream: RandomStream, workers: int) -> list[str]:
    if n < 1:
        raise ValueError("length must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if score is not None:
        _population(scheme, n, score)  # reject an infeasible score before any worker starts
    bits = map_strided(_draw, range(count), workers, scheme, n, score, stream.seed)
    # the str(Alignment) text, letter b_1 first: the binary numeral behind a
    # leading 1 that keeps its zeros, reversed, with "0b1" dropped
    top = 1 << n
    return [bin(b | top)[:2:-1] for b in bits]


def sample_fixed(scheme: ScoringScheme, n: int, score: int, count: int,
                 stream: RandomStream, workers: int = 1) -> list[str]:
    """Uniform samples over homogeneous alignments of length n and exact score.

    Each sample is its 0/1 text, letter b_1 first: the ``str`` of its
    ``Alignment``, which ``Alignment.from_string`` parses back. Output is
    identical for any worker count; worker w of W draws every W-th sample
    from index w, and at most one worker per CPU is started.
    """
    return _sample(scheme, n, score, count, stream, workers)


def sample_free(scheme: ScoringScheme, n: int, count: int,
                stream: RandomStream, workers: int = 1) -> list[str]:
    """Uniform samples over all homogeneous alignments of length n, any score,
    each as its 0/1 text like ``sample_fixed``."""
    return _sample(scheme, n, None, count, stream, workers)
