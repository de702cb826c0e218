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
rejects a try that is not below the bound. A ``RandomStream`` is only that
validated seed; nothing draws from it directly. Output therefore depends
only on (seed, sample index) and is identical no matter how samples are
split across workers, each of which builds its own population.

A sample stays an int bit string through the draw and the workers;
``sample_fixed`` and ``sample_free`` return each one as its 0/1 text, the
``str`` of its ``Alignment``, with no ``Alignment`` object built per sample.
"""

from __future__ import annotations

from typing import Iterable, Iterator

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
