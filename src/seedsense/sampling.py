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
sample, with integer arithmetic only. The walk is keyed on the mismatches
placed so far, and its counts are a class's rows as ``counting.class_steps``
reads them from the sweep: the uniform model's sweep has no band, a
homogeneous one the band of its class's score.

A class that many of a call's samples fall in walks ``_BLOCK`` = 8 letters
per step: a table per (block start, mismatches placed) lists the block's
continuations in rank order with the rank offset each subtracts, and one
``bisect_right`` replaces eight comparisons, giving every rank the member
the per-letter walk gives. Tables are built when a walk first reaches them
and live for one ``_unrank`` call. Whether a class gets them is decided once
per call: its expected share of the samples must cover its table slots by
the measured factor ``_HOT``, so a few samples spread over many classes
(a free score at large lengths) walk letter by letter and build nothing.

The rank of sample i is counter-based (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3"): ``_ranks`` reads its 64-bit words from the
SplitMix64 sequence started at the child seed ``stream.spawn(i).seed``, and
rejects a try that is not below the bound. SplitMix64 is lane-wise 64-bit
arithmetic, so ``_ranks`` computes the ranks of up to ``_BATCH`` indices at
a time, each index in its own 128-bit lane of one int (a 64-bit by 64-bit
product fits in a lane), and packs the lanes that reject into a smaller int
for their next try; every rank is the value the per-index definition gives.
A ``RandomStream`` is only that validated seed; nothing draws from it
directly. Output therefore depends only on (seed, sample index) and is
identical no matter how samples are split across workers, each of which
builds its own population.

A sample stays an int bit string through the draw and the workers;
``sample_fixed`` and ``sample_free`` return each one as its 0/1 text, the
``str`` of its ``Alignment``, with no ``Alignment`` object built per sample.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_right
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ._pool import map_strided
from .alignments import ScoringScheme
from .counting import HOMOGENEOUS, InfeasibleScore, class_steps, count_homogeneous, positive_scores

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH = 4096  # sample indices whose ranks share one int in _ranks
_BIG_ENDIAN = sys.byteorder == "big"
_BLOCK = 8  # letters per step of a hot class's walk in _unrank
# samples a class must expect per table slot to walk by blocks (see _unrank): drawing
# 24 per slot, 39 of 40 classes timed (six schemes with s, p <= 3 and the uniform model,
# n 40-100) walked at least as fast hot as cold; drawing 12, 13 were over 10% slower
_HOT = 24


def _splitmix64(x: int) -> int:
    # SplitMix64 finalizer (Steele, Lea & Flood)
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return x ^ (x >> 31)


def _mix(x: int, low: int) -> int:
    # _splitmix64 on every 128-bit lane of x, each holding a value below 2**64:
    # `& low`, the low 64 bits of every lane, drops what a shift pulls in from the
    # next lane and reduces a product mod 2**64; kept apart from _splitmix64, which
    # the tests use as the reference
    x = (x ^ x >> 30 & low) * 0xBF58476D1CE4E5B9 & low
    x = (x ^ x >> 27 & low) * 0x94D049BB133111EB & low
    return x ^ x >> 31 & low


def _child_seed(seed: int, index: int) -> int:
    # the (index+1)-th output of the SplitMix64 sequence started at seed
    return _splitmix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def _lanes(values: array) -> int:
    """One int whose 128-bit lane j holds values[j]."""
    words = array("Q", bytes(16 * len(values)))
    words[::2] = values
    if _BIG_ENDIAN:
        words.byteswap()
    return int.from_bytes(words, "little")


def _unlanes(x: int, count: int) -> array:
    """The values in the first `count` 128-bit lanes of x, each below 2**64."""
    words = array("Q", x.to_bytes(16 * count, "little"))
    if _BIG_ENDIAN:
        words.byteswap()
    return words[::2]


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
    next sample's first word. A k-bit bound takes ceil(k/64) words per try
    (none for bound 1, whose every rank is 0), and a try that is not below
    the bound is rejected. The indices are taken ``_BATCH`` at a time and
    their ranks computed together by ``_batch_ranks``.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    words = -(-k // 64)
    indices = iter(indices)
    while batch := array("Q", islice(indices, _BATCH)):
        yield from _batch_ranks(seed, batch, bound, words, 64 * words - k)


def _batch_ranks(seed: int, batch: array, bound: int, words: int,
                 drop: int) -> Sequence[int]:
    """The ranks of the indices in `batch`, index j computed in 128-bit lane j of one int.

    Each SplitMix64 step is a few whole-int operations over all lanes. The
    lanes whose try is rejected are packed again, with the state each has
    reached, and draw their next try together.
    """
    lanes = len(batch)
    ones = _lanes(array("Q", [1]) * lanes)
    low = ones * _MASK64
    # lane j: the child seed of batch[j]; (i + 1) * GOLDEN + seed stays below 2**128
    state = _mix((_lanes(batch) + ones) * _GOLDEN + seed * ones & low, low)
    ranks = None
    todo = range(lanes)  # the position in ranks of each lane
    while True:
        if words == 1:
            state = state + _GOLDEN * ones & low
            r = _unlanes(_mix(state, low) >> drop & low, lanes)
        else:  # the words of a try joined lane by lane, most significant first
            r = [0] * lanes
            for _ in range(words):
                state = state + _GOLDEN * ones & low
                r = [high << 64 | w for high, w in zip(r, _unlanes(_mix(state, low), lanes))]
            r = [x >> drop for x in r]
        if ranks is None:
            ranks = r
        else:
            for pos, x in zip(todo, r):
                ranks[pos] = x
        rejected = [j for j, x in enumerate(r) if x >= bound]
        if not rejected:
            return ranks
        states = _unlanes(state, lanes)
        state = _lanes(array("Q", [states[j] for j in rejected]))
        todo = [todo[j] for j in rejected]
        lanes = len(rejected)
        ones = _lanes(array("Q", [1]) * lanes)
        low = ones * _MASK64


_Population = list[tuple[int, list[list[int]]]]


def _population(scheme: ScoringScheme, n: int, score: int | None,
                model: str = HOMOGENEOUS) -> _Population:
    """The population a sample is drawn from, as a list of (size, steps) classes.

    A homogeneous population has one class per score (each positive score,
    ascending, when `score` is None, skipping the empty ones); the uniform
    model's is every sequence of the score. Each class is read by
    ``counting.class_steps``.
    """
    scores = positive_scores(scheme, n) if score is None else [score]
    classes = [c for t in scores if (c := class_steps(scheme, n, t, model))]
    if not classes:
        raise InfeasibleScore.empty(scheme, n, score, model)
    return classes


def _block(steps: list[list[int]], j: int, u: int,
           size: int) -> tuple[list[int], list[tuple[int, int, int, int]]]:
    """The table of a class's walk from step j with u mismatches placed.

    It lists the continuations of the next ``_BLOCK`` letters (fewer at the
    end) that some member takes, in rank order, matches first. Each is
    (offset, letter bits at their positions, mismatches placed after it,
    completions after it); the offset is the sum of the match counts the
    per-letter walk subtracts along it. A match child completes
    ``steps[i][v]`` members and a mismatch child the rest; a child that
    completes none is dropped, so the offsets rise strictly. The table is
    (the offsets after the first, the continuations): a rank r below the
    completions from (j, u) takes continuation ``bisect_right(offsets, r)``.
    """
    # the walks that reach step j with u mismatches placed: those that took the
    # match at step j - 1 with u placed, or the whole class at the start
    level = [(0, 0, u, steps[j - 1][u] if j else size)]  # (offset, bits, v, completions)
    for i in range(j, min(j + _BLOCK, len(steps))):
        row = steps[i]
        bit = 1 << i
        nxt = []
        add = nxt.append
        for offset, bits, v, c in level:
            num = row[v]
            if num:
                add((offset, bits | bit, v, num))
            if c > num:
                add((offset + num, bits, v + 1, c - num))
        level = nxt
    return [e[0] for e in level[1:]], level


def _unrank(population: _Population, ranks: Iterable[int], count: int) -> Iterator[int]:
    """The bit string of each of `count` ranks below the population's size.

    The classes' rank ranges are concatenated in list order, and a rank's
    class is picked by subtracting sizes. With u mismatches placed, the walk
    takes the match at step j when the rank is below ``steps[j][u]``, and
    otherwise subtracts that count and takes the mismatch.

    A hot class walks ``_BLOCK`` letters per step instead: one
    ``bisect_right`` into the ``_block`` table of (block start, u) picks the
    continuation the per-letter walk would take, subtracts its offset and
    places its letters and mismatches, so both walks give every rank the same
    member. A table is built the first time a walk reaches it and lives for
    this call. The rule is decided once per class: a class is hot when its
    expected share of the `count` samples, count * size / total, is at least
    ``_HOT`` times its table slots, blocks * (q + 1). A cold class walks
    letter by letter and builds nothing: a few samples spread over many
    slots would not pay for the tables they reach.
    """
    total = sum(size for size, _ in population)
    classes = []
    for size, steps in population:
        starts = range(0, len(steps), _BLOCK)
        hot = count * size >= _HOT * len(starts) * len(steps[0]) * total
        # a row of tables per block, one slot per u, ending with the block's first step
        tables = [[None] * len(steps[0]) + [j] for j in starts] if hot else None
        classes.append((size, steps, tables))
    for r in ranks:
        for size, steps, tables in classes:
            if r < size:
                break
            r -= size
        bits = 0
        u = 0
        if tables is None:
            bit = 1
            for after_match in steps:
                num = after_match[u]
                if r < num:
                    bits |= bit
                else:
                    r -= num
                    u += 1
                bit <<= 1
        else:
            for row in tables:
                table = row[u]
                if table is None:
                    table = row[u] = _block(steps, row[-1], u, size)
                offsets, moves = table
                offset, letters, u, _ = moves[bisect_right(offsets, r)]
                r -= offset
                bits |= letters
        yield bits


def _draw(indices: Sequence[int], scheme: ScoringScheme, n: int, score: int | None, seed: int,
          model: str = HOMOGENEOUS) -> Iterator[int]:
    """The bit strings of samples `indices` of the stream seeded `seed`, as a lazy stream.

    Every sampler draws through here, one call per request in each process:
    the population is built now (an infeasible score raises here), and the
    ``_ranks`` of the indices are computed and unranked as the stream is read.
    """
    population = _population(scheme, n, score, model)
    bound = sum(size for size, _ in population)
    return _unrank(population, _ranks(seed, indices, bound), len(indices))


def _sample(scheme: ScoringScheme, n: int, score: int | None, count: int,
            stream: RandomStream, workers: int) -> list[str]:
    if n < 1:
        raise ValueError("length must be >= 1")
    if count < 0:
        raise ValueError("count must be nonnegative")
    # an infeasible score fails before any worker starts; counting it builds no rows
    if score is not None and count_homogeneous(scheme, n, score) == 0:
        raise InfeasibleScore.empty(scheme, n, score, HOMOGENEOUS)
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
    from index w, and at most one worker per usable CPU is started.
    """
    return _sample(scheme, n, score, count, stream, workers)


def sample_free(scheme: ScoringScheme, n: int, count: int,
                stream: RandomStream, workers: int = 1) -> list[str]:
    """Uniform samples over all homogeneous alignments of length n, any score,
    each as its 0/1 text like ``sample_fixed``."""
    return _sample(scheme, n, None, count, stream, workers)
