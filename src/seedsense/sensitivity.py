"""Exact hit probability of a detection strategy on score-constrained alignments.

Two alignment models share one dynamic program:

* ``homogeneous``: uniform over homogeneous alignments of length n and
  score S (walks confined to the open band (0, S) until the final step);
* ``all``: uniform over every binary sequence of length n and score S.

The program sweeps the prefixes left to right over integer counts. A
prefix of length i with q mismatches scores i*s - q*(s+p), so at each length
the mismatch count fixes the score, and a layer holds one Python int per
scanner state whose fixed-width lanes count that state's prefixes by
mismatch count (Kronecker substitution: Schönhage 1982; Harvey 2009). A
match adds a state's int to its successor's unchanged, a mismatch adds it
shifted up one lane, so one big-int add moves every prefix score of a state
at once. After each step the sweep keeps only the lanes whose score can
still end on S by the longest requested length. That window is the only
difference between the models: the homogeneous one also clamps it to the
open band (0, S). Before the window is applied, the lane of score S gives
both sides of the answer at each requested length: summed over all states
it is the population, in the accept state the hits, and one division gives
the exact rational probability. The scanner is a deterministic automaton
over {0, 1} that remembers just enough of the recent suffix to decide
future seed matches; suffix letters that can no longer contribute to a
match window are dropped, which keeps the state count near
span * 2**(span - weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .alignments import DetectionStrategy, ScoringScheme, _bits_detected
from .counting import InfeasibleScore
from .sampling import RandomStream, _draw

HOMOGENEOUS = "homogeneous"
UNIFORM = "all"
MODELS = (HOMOGENEOUS, UNIFORM)
_MC_CHUNK = 1 << 16  # samples drawn per call of the sampler in mc_estimate


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

    States are (remembered suffix, occurrences still needed); state 0 is the
    absorbing accept. On each letter the suffix grows; a full window either
    fires (decrementing the occurrence count and keeping only the last
    max_overlap letters) or sheds its first letter. Letters whose window can
    no longer match are dropped from the front eagerly.
    """

    def __init__(self, strategy: DetectionStrategy):
        seed = strategy.seed
        span = seed.span
        mask = seed.required_mask
        keep = strategy.max_overlap
        # a suffix of L letters is an int whose bit i holds its letter i; pre[L]
        # is the seed's required positions among the first L
        pre = [mask & ((1 << length) - 1) for length in range(span + 1)]

        def canonical(v: int, length: int, remaining: int) -> tuple[int, int, int]:
            # drop front letters whose match window is already impossible
            while v & pre[length] != pre[length]:
                v >>= 1
                length -= 1
            return v, length, remaining

        index: dict[tuple[int, int, int] | None, int] = {}
        states: list[tuple[int, int, int] | None] = []

        def intern(state: tuple[int, int, int] | None) -> int:
            sid = index.get(state)
            if sid is None:
                sid = index[state] = len(states)
                states.append(state)
            return sid

        accept = intern(None)
        start = intern((0, 0, strategy.required_occurrences))
        step0: list[int] = [accept]
        step1: list[int] = [accept]
        pos = 1
        while pos < len(states):
            suffix, length, remaining = states[pos]  # type: ignore[misc]
            for table, letter in ((step0, 0), (step1, 1)):
                grown = suffix | letter << length
                if length + 1 < span:
                    target = intern(canonical(grown, length + 1, remaining))
                elif grown & mask != mask:
                    target = intern(canonical(grown >> 1, span - 1, remaining))
                elif remaining == 1:
                    target = accept
                else:
                    target = intern(canonical(grown >> (span - keep), keep, remaining - 1))
                table.append(target)
            pos += 1
        self.step0 = step0
        self.step1 = step1
        self.accept = accept
        self.start = start
        self.size = len(states)


def _profile(automaton: _HitAutomaton, scheme: ScoringScheme, score: int,
             lengths: list[int], model: str) -> dict[int, tuple[int, int]]:
    """(hits, population) per requested length, both read from one sweep."""
    s, p = scheme.match_score, scheme.mismatch_penalty
    per_mismatch = s + p
    horizon = max(lengths)
    step0, step1, accept = automaton.step0, automaton.step1, automaton.accept
    wanted = set(lengths)
    out: dict[int, tuple[int, int]] = {}
    # lane j of a state's int counts its prefixes with base + j mismatches; summed
    # over all states a lane holds at most C(i, base + j) <= 2**horizon prefixes, so
    # width bits never carry into the next lane
    width = horizon + 1
    lane = (1 << width) - 1
    layer = [0] * automaton.size
    layer[automaton.start] = 1
    base, shift, keep = 0, 0, -1
    for i in range(1, horizon + 1):
        nxt = [0] * automaton.size
        for to0, to1, v in zip(step0, step1, layer):
            if v:
                # the previous step's window, applied as the layer is read
                v = (v >> shift) & keep
                if v:
                    nxt[to1] += v
                    nxt[to0] += v << width
        if i in wanted:
            # read before the window, which excludes the score itself when homogeneous;
            # no lane below base holds a prefix, and lanes above i read as 0
            q, rem = divmod(i * s - score, per_mismatch)
            if rem or q < base:
                out[i] = (0, 0)
            else:
                at = (q - base) * width
                out[i] = ((nxt[accept] >> at) & lane, (sum(nxt) >> at) & lane)
        # keep the prefix scores that can still end on the score by the horizon
        remaining = horizon - i
        lo, hi = score - remaining * s, score + remaining * p
        if model == HOMOGENEOUS:
            # a homogeneous prefix stays inside the open band (0, score)
            lo, hi = max(lo, 1), min(hi, score - 1)
        # the same window in mismatch counts, ceil((i*s - hi) / (s+p)) through
        # floor((i*s - lo) / (s+p)); lane qlo becomes the new base
        qlo = max(base, -((hi - i * s) // per_mismatch))
        qhi = min(i, (i * s - lo) // per_mismatch)
        shift = (qlo - base) * width
        keep = (1 << (qhi - qlo + 1) * width) - 1 if qhi >= qlo else 0
        base = qlo
        layer = nxt
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
    profile = _profile(_HitAutomaton(strategy), scheme, score, lengths, model)
    reports = []
    for query in queries:
        hits, population = profile[query.length]
        if population == 0:
            raise InfeasibleScore(
                f"no alignments of length {query.length} and score {score} under {scheme}")
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


def mc_estimate(query: SensitivityQuery, samples: int, stream: RandomStream) -> McEstimate:
    """Monte-Carlo hit-rate estimate with binomial standard error."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    seed = query.strategy.seed
    mask = seed.required_mask
    span = seed.span
    needed = query.strategy.required_occurrences
    min_gap = span - query.strategy.max_overlap
    n = query.length
    hits = 0
    # in chunks, so memory does not grow with the sample count
    for start in range(0, samples, _MC_CHUNK):
        draws = _draw(range(start, min(start + _MC_CHUNK, samples)), query.scheme, n,
                      query.score, stream.seed, query.model == UNIFORM)
        hits += sum(_bits_detected(bits, n, mask, span, needed, min_gap) for bits in draws)
    return McEstimate(query, samples, hits)
