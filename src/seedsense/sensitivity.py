"""Exact hit probability of a detection strategy on score-constrained alignments.

Two alignment models share one dynamic program:

* ``homogeneous``: uniform over homogeneous alignments of length n and
  score S (walks confined to the open band (0, S) until the final step);
* ``all``: uniform over every binary sequence of length n and score S.

The program is ``counting.lane_sweep`` run over the states of a scanner
automaton, the same sweep that counts populations and builds the samplers.
Before the window of each requested length, the lane of score S gives both
sides of the answer: summed over all states it is the population, in the
accept state the hits, and one division gives the exact rational
probability. The scanner is a deterministic automaton over {0, 1} whose
state is the set of seed windows still alive, as a bitmask, plus the
occurrences still needed: the Shift-And state of Baeza-Yates & Gonnet ("A
new approach to text searching", CACM 1992). Each live set is a function of
the recent letters that can still complete a match, so the automaton is a
quotient of the one that remembers those letters and is never larger than
it. For the weight-11, span-18 seed 110100110010101111 it has 283 states,
against 756 for the suffix automaton and 243 for the minimal one.

A strategy and its mirror, the reversed seed with the same occurrences and
overlap, have the same hit counts in both models, but their scanners often
differ in size, and the sweep costs time in proportion to the states. So
``_scanner`` sweeps the smaller of the two: the seed above is swept through
its mirror's 199 states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat

from . import sampling
from .alignments import DetectionStrategy, ScoringScheme, Seed, _admissible, _window_starts
from .counting import (HOMOGENEOUS, MODELS, UNIFORM, InfeasibleScore, feasible_composition,
                       lane, lane_sweep, lane_width)
from .sampling import RandomStream


@dataclass(frozen=True)
class SensitivityQuery:
    strategy: DetectionStrategy
    scheme: ScoringScheme
    length: int
    score: int
    model: str = HOMOGENEOUS

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}")
        if self.model == HOMOGENEOUS and self.score < 1:
            raise ValueError("homogeneous alignments require score >= 1")


@dataclass(frozen=True)
class SensitivityReport:
    """Exact hit probability as detected count over model population size."""

    query: SensitivityQuery
    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("need 0 <= numerator <= denominator")

    @property
    def probability(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def decimal(self, digits: int = 6) -> str:
        return decimal_ratio(self.numerator, self.denominator, digits)


def decimal_ratio(numerator: int, denominator: int, digits: int = 6) -> str:
    """Decimal rendering of a nonnegative ratio, round-half-even at `digits` digits."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator < 0:
        raise ValueError("numerator must be nonnegative")
    if digits < 0:
        raise ValueError("digits must be nonnegative")
    scale = 10 ** digits
    q, r = divmod(numerator * scale, denominator)
    doubled = 2 * r
    if doubled > denominator or (doubled == denominator and q & 1):
        q += 1
    if digits == 0:
        return str(q)
    whole, frac = divmod(q, scale)
    return f"{whole}.{frac:0{digits}d}"


class _HitAutomaton:
    """Left-to-right scanner for a detection strategy.

    States are (live windows, occurrences still needed), keyed on the one int
    ``remaining << span | live``; state 0, key 0, is the absorbing accept.
    Bit d of the live set marks the seed window that started d letters ago
    and still matches every required position read so far (the Shift-And
    state of Baeza-Yates & Gonnet 1992). On each letter every window moves
    one position on and a new one opens; a mismatch kills the windows whose
    current position is required. A window that reaches the last position
    fires: the occurrence count drops, and only windows that started within
    the last max_overlap letters stay live, since only they can end far
    enough away to be the next occurrence.

    A build given a `cap` stops once it has found more states than that. Its
    size is then above the cap and its tables are partial: it only tells the
    caller that the full scanner is larger.
    """

    def __init__(self, strategy: DetectionStrategy, cap: int | None = None):
        span = strategy.seed.span
        last = 1 << (span - 1)
        # bit d is set when seed position d is a don't-care
        survives_mismatch = ~strategy.seed.required_mask & ((last << 1) - 1)
        after_fire = (1 << strategy.max_overlap) - 1
        occurrence = 1 << span  # one occurrence still needed, in a state key
        start = strategy.required_occurrences << span
        keys = [0, start]
        index = {0: 0, start: 1}
        step0: list[int] = [0]
        step1: list[int] = [0]
        limit = math.inf if cap is None else cap
        pos = 1
        while pos < len(keys) <= limit:
            key = keys[pos]
            live = key & (occurrence - 1)
            moved = live << 1 | 1
            for table, windows in ((step0, moved & survives_mismatch), (step1, moved)):
                if not windows & last:
                    target = key - live | windows
                elif key < 2 * occurrence:
                    target = 0  # the last occurrence needed fired
                else:
                    target = key - live - occurrence | windows & after_fire
                sid = index.get(target)
                if sid is None:
                    sid = index[target] = len(keys)
                    keys.append(target)
                table.append(sid)
            pos += 1
        self.step0 = step0
        self.step1 = step1
        self.accept = 0
        self.start = 1
        self.size = len(keys)


def _scanner(strategy: DetectionStrategy) -> _HitAutomaton:
    """The smaller of the scanners of the strategy and of its mirror, its own on a tie.

    Reversal maps each alignment model onto itself and preserves detection,
    so both scanners give the same hit counts. A palindromic seed is its own
    mirror, so its mirror is not built. Any other mirror is built with a cap
    of one state fewer than the strategy's own: its build stops as soon as it
    cannot be the smaller.
    """
    own = _HitAutomaton(strategy)
    pattern = strategy.seed.pattern
    if pattern == pattern[::-1]:
        return own
    cap = own.size - 1
    mirror = _HitAutomaton(DetectionStrategy(Seed(pattern[::-1]),
                                             strategy.required_occurrences,
                                             strategy.max_overlap), cap)
    return mirror if mirror.size <= cap else own


def _profile(automaton: _HitAutomaton, scheme: ScoringScheme, score: int,
             lengths: list[int], model: str) -> dict[int, tuple[int, int]]:
    """(hits, population) per requested length, both read from one sweep."""
    horizon = max(lengths)
    width = lane_width(scheme, score, horizon)
    accept = automaton.accept
    out = dict.fromkeys(lengths, (0, 0))
    sweep = lane_sweep(automaton.step0, automaton.step1, automaton.start, scheme, score,
                       horizon, model)
    for i, (layer, base, _, _) in enumerate(sweep):
        # read before the window, which excludes the score itself when homogeneous
        if i in out and (comp := feasible_composition(scheme, i, score)):
            q = comp.mismatches
            out[i] = (lane(layer[accept], q, base, width), lane(sum(layer), q, base, width))
    return out


def hit_probability_profile(strategy: DetectionStrategy, scheme: ScoringScheme, score: int,
                            lengths: list[int],
                            model: str = HOMOGENEOUS) -> list[SensitivityReport]:
    """Exact hit probabilities for several lengths at one fixed score.

    All lengths share a single counting pass, so sweeping a length range
    costs about as much as the longest single query.
    """
    if not lengths:
        raise ValueError("lengths must be nonempty")
    queries = [SensitivityQuery(strategy, scheme, n, score, model) for n in lengths]
    profile = _profile(_scanner(strategy), scheme, score, lengths, model)
    reports = []
    for query in queries:
        hits, population = profile[query.length]
        if population == 0:
            raise InfeasibleScore.empty(scheme, query.length, score, model)
        reports.append(SensitivityReport(query, hits, population))
    return reports


def hit_probability(query: SensitivityQuery) -> SensitivityReport:
    """Exact probability that the strategy detects a random alignment of the model.

    A seed span longer than the alignment is not an error; it simply yields
    probability 0.
    """
    return hit_probability_profile(
        query.strategy, query.scheme, query.score, [query.length], query.model
    )[0]


@dataclass(frozen=True)
class McEstimate:
    query: SensitivityQuery
    samples: int
    hits: int

    @property
    def estimate(self) -> float:
        return self.hits / self.samples

    @property
    def stderr(self) -> float:
        f = self.hits / self.samples
        return math.sqrt(f * (1.0 - f) / self.samples)


def _hits(draws: list[int], n: int, strategy: DetectionStrategy) -> int:
    """How many of the length-n alignments `draws` the strategy detects, scanned together.

    Each alignment sits in its own byte-aligned lane of one int, with a spare
    top bit at or above bit n, and ``_window_starts`` on that int marks the
    matching window starts of every lane at once. The occurrence greedy,
    ``_admissible``, then runs on every lane at once and counts the lanes it
    hits.
    """
    seed = strategy.seed
    width = n // 8 + 1  # bytes per lane: n letters and the spare top bit
    lanes = b"".join(map(int.to_bytes, draws, repeat(width), repeat("little")))
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(draws), "little")
    found = _window_starts(int.from_bytes(lanes, "little"), seed.required_mask,
                           ones * ((1 << max(n - seed.span + 1, 0)) - 1))
    return _admissible(found, strategy.required_occurrences, seed.span - strategy.max_overlap,
                       ones, ones << 8 * width - 1)


def mc_estimate(query: SensitivityQuery, samples: int, stream: RandomStream) -> McEstimate:
    """Monte-Carlo hit-rate estimate with binomial standard error.

    Sample i is the one ``generate`` draws as sample i of the same stream:
    one ``_draw`` stream serves the whole request, and it is read one rank
    batch (``sampling._BATCH`` samples) at a time, so memory does not grow
    with the sample count. ``_hits`` scans each batch at once, each sample in
    its own lane of one int. Every rank, sample and hit count is the one the
    sample-by-sample definition gives.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    n = query.length
    draws = sampling._draw(range(samples), query.scheme, n, query.score, stream.seed,
                           query.model)
    hits = 0
    while batch := list(islice(draws, sampling._BATCH)):
        hits += _hits(batch, n, query.strategy)
    return McEstimate(query, samples, hits)
