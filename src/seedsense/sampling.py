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
placed so far, and its counts are the layers of ``counting.lane_sweep``
read backward: the uniform model's sweep has no band, a homogeneous one the
band of its class's score.

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
from itertools import islice
from typing import Iterable, Iterator, Sequence

from ._pool import map_strided
from .alignments import ScoringScheme
from .counting import (
    HOMOGENEOUS,
    InfeasibleScore,
    feasible_composition,
    lane,
    lane_sweep,
    positive_scores,
)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BATCH = 4096  # sample indices whose ranks share one int in _ranks
_BIG_ENDIAN = sys.byteorder == "big"


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
    next sample's first word. A k-bit bound takes ceil(k/64) words per try,
    and a try that is not below the bound is rejected. The indices are taken
    ``_BATCH`` at a time and their ranks computed together by ``_batch_ranks``.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    words = -(-k // 64)
    indices = iter(indices)
    if not words:
        for _ in indices:
            yield 0
        return
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
    ascending, when `score` is None); the uniform model's is every sequence
    of the score. ``steps[j][u]`` is the number of a class's members that,
    with u mismatches placed before step j, take a match there. Reversal
    maps the walks of a class onto themselves, so those completions are the
    class's length-(n-j-1) prefixes with the q - u mismatches left: lane
    q - u of ``lane_sweep``'s windowed layer at that length. The window
    matters: a match onto the score with letters left completes nothing.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    scores = positive_scores(scheme, n) if score is None else [score]
    width = n + 1
    classes = []
    for t in scores:
        comp = feasible_composition(scheme, n, t)
        if comp is None or (model == HOMOGENEOUS and t < 1):
            continue
        q = comp.mismatches
        rows = []
        for layer, base, low, high in lane_sweep([0], [0], 0, scheme, t, n, model):
            v = layer[0]
            row = [0] * (q + 1)
            for m in range(low, high + 1):
                row[q - m] = lane(v, m, base, width)
            rows.append(row)
        size = lane(v, q, base, width)
        if size:
            # rows[k] holds the windowed layer of length k; step j reads length n - j - 1
            classes.append((size, rows[n - 1::-1]))
    if not classes:
        if model == HOMOGENEOUS:
            raise InfeasibleScore(
                f"no homogeneous alignment of length {n} has score {score} under {scheme}")
        raise InfeasibleScore(f"no alignments of length {n} and score {score} under {scheme}")
    return classes


def _unrank(population: _Population, ranks: Iterable[int]) -> Iterator[int]:
    """The bit string of each rank below the population's size.

    The classes' rank ranges are concatenated in list order, and a rank's
    class is picked by subtracting sizes. With u mismatches placed, the walk
    takes the match at step j when the rank is below ``steps[j][u]``, and
    otherwise subtracts that count and takes the mismatch.
    """
    for r in ranks:
        for size, steps in population:
            if r < size:
                break
            r -= size
        bits = 0
        bit = 1
        u = 0
        for after_match in steps:
            num = after_match[u]
            if r < num:
                bits |= bit
            else:
                r -= num
                u += 1
            bit <<= 1
        yield bits


def _draw(indices: Iterable[int], scheme: ScoringScheme, n: int, score: int | None, seed: int,
          model: str = HOMOGENEOUS) -> list[int]:
    """The bit strings of samples `indices` of the stream seeded `seed`.

    Every sampler draws through here: a worker builds its own population and
    unranks the ``_ranks`` of its indices.
    """
    population = _population(scheme, n, score, model)
    bound = sum(size for size, _ in population)
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
