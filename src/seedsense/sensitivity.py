"""Exact hit probability of a detection strategy on score-constrained alignments.

Two alignment models share one dynamic program:

* ``homogeneous``: uniform over homogeneous alignments of length n and
  score S (walks confined to the open band (0, S) until the final step);
* ``all``: uniform over every binary sequence of length n and score S.

The recursion is run over integer counts rather than probabilities: a layer
maps (scanner state, prefix score) to the number of admissible prefixes, and
a single division at the end produces the exact rational probability. The
scanner is a deterministic automaton over {0, 1} that remembers just enough
of the recent suffix to decide future seed matches; suffix letters that can
no longer contribute to a match window are dropped, which keeps the state
count near span * 2**(span - weight).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .alignments import DetectionStrategy, ScoringScheme, _bits_detected
from .counting import CountTableD, InfeasibleScore, feasible_composition
from .sampling import RandomStream, _fixed_table, _iter_bits

HOMOGENEOUS = "homogeneous"
UNIFORM = "all"
MODELS = (HOMOGENEOUS, UNIFORM)


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
        required = [i for i, ch in enumerate(seed.pattern) if ch == "1"]
        keep = strategy.max_overlap

        def matches(window: str) -> bool:
            return all(window[i] == "1" for i in required)

        def canonical(v: str) -> str:
            # drop front letters whose match window is already impossible
            while v and not all(v[i] == "1" for i in required if i < len(v)):
                v = v[1:]
            return v

        index: dict[tuple[str, int] | None, int] = {}
        states: list[tuple[str, int] | None] = []

        def intern(state: tuple[str, int] | None) -> int:
            sid = index.get(state)
            if sid is None:
                sid = index[state] = len(states)
                states.append(state)
            return sid

        accept = intern(None)
        start = intern(("", strategy.required_occurrences))
        step0: list[int] = [accept]
        step1: list[int] = [accept]
        pos = 1
        while pos < len(states):
            suffix, remaining = states[pos]  # type: ignore[misc]
            for table, letter in ((step0, "0"), (step1, "1")):
                grown = suffix + letter
                if len(grown) == span:
                    if matches(grown):
                        if remaining == 1:
                            target = accept
                        else:
                            trimmed = grown[span - keep:] if keep else ""
                            target = intern((canonical(trimmed), remaining - 1))
                    else:
                        target = intern((canonical(grown[1:]), remaining))
                else:
                    target = intern((canonical(grown), remaining))
                table.append(target)
            pos += 1
        self.step0 = step0
        self.step1 = step1
        self.accept = accept
        self.start = start
        self.size = len(states)


def _homogeneous_profile(automaton: _HitAutomaton, scheme: ScoringScheme, score: int,
                         lengths: list[int], check: bool = False) -> dict[int, tuple[int, int]]:
    """(hits, population) per requested length, homogeneous model, shared one pass."""
    s, p = scheme.match_score, scheme.mismatch_penalty
    table = CountTableD(scheme, score, max(lengths))
    rows = table._rows
    step0, step1, accept = automaton.step0, automaton.step1, automaton.accept
    wanted = set(lengths)
    out: dict[int, tuple[int, int]] = {}
    layer: dict[tuple[int, int], int] = {(automaton.start, 0): 1}
    for i in range(1, max(lengths) + 1):
        if i in wanted:
            # the final step must be a match landing exactly on the target
            prev = score - s
            hits = sum(c for (st, y), c in layer.items()
                       if y == prev and step1[st] == accept)
            out[i] = (hits, rows[i][0])
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (st, y), c in layer.items():
            up = y + s
            if up < score:
                key = (step1[st], up)
                nxt[key] = get(key, 0) + c
            down = y - p
            if down > 0:
                key = (step0[st], down)
                nxt[key] = get(key, 0) + c
        layer = nxt
        if check:
            by_y: dict[int, int] = {}
            for (st, y), c in layer.items():
                by_y[y] = by_y.get(y, 0) + c
            for y, c in by_y.items():
                assert c == table.count(score - y, i), (i, y, c)
    return out


def _uniform_profile(automaton: _HitAutomaton, scheme: ScoringScheme, score: int,
                     lengths: list[int]) -> dict[int, tuple[int, int]]:
    """(hits, population) per requested length, uniform fixed-score model."""
    s, p = scheme.match_score, scheme.mismatch_penalty
    horizon = max(lengths)
    step0, step1, accept = automaton.step0, automaton.step1, automaton.accept
    wanted = set(lengths)
    out: dict[int, tuple[int, int]] = {}
    layer: dict[tuple[int, int], int] = {(automaton.start, 0): 1}
    for i in range(1, horizon + 1):
        remaining = horizon - i
        nxt: dict[tuple[int, int], int] = {}
        get = nxt.get
        for (st, y), c in layer.items():
            for tgt, moved in ((step1[st], y + s), (step0[st], y - p)):
                # drop states that can no longer reach the score by any wanted length
                if moved + remaining * s < score or moved - remaining * p > score:
                    continue
                key = (tgt, moved)
                nxt[key] = get(key, 0) + c
        layer = nxt
        if i in wanted:
            hits = sum(c for (st, y), c in layer.items() if y == score and st == accept)
            comp = feasible_composition(scheme, i, score)
            out[i] = (hits, math.comb(i, comp.matches) if comp else 0)
    return out


def hit_probability_profile(strategy: DetectionStrategy, scheme: ScoringScheme, score: int,
                            lengths: list[int], model: str = HOMOGENEOUS,
                            check: bool = False) -> list[SensitivityReport]:
    """Exact hit probabilities for several lengths at one fixed score.

    All lengths share a single table build and counting pass, so sweeping a
    length range costs about as much as the longest single query.
    """
    if not lengths:
        raise ValueError("lengths must be nonempty")
    if any(n < 1 for n in lengths):
        raise ValueError("lengths must be >= 1")
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if model == HOMOGENEOUS and score < 1:
        raise ValueError("homogeneous alignments require score >= 1")
    automaton = _HitAutomaton(strategy)
    if model == HOMOGENEOUS:
        profile = _homogeneous_profile(automaton, scheme, score, lengths, check=check)
    else:
        profile = _uniform_profile(automaton, scheme, score, lengths)
    reports = []
    for n in lengths:
        hits, population = profile[n]
        if population == 0:
            raise InfeasibleScore(f"no alignments of length {n} and score {score} under {scheme}")
        query = SensitivityQuery(strategy, scheme, n, score, model)
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


def _iter_uniform_bits(n: int, mismatches: int, count: int, stream: RandomStream):
    full = (1 << n) - 1
    for i in range(count):
        randbelow = stream.spawn(i).randbelow
        # Floyd's algorithm: uniform subset of `mismatches` positions
        chosen: set[int] = set()
        bits = full
        for j in range(n - mismatches, n):
            t = randbelow(j + 1)
            pos = t if t not in chosen else j
            chosen.add(pos)
            bits ^= 1 << pos
        yield bits


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
    if query.model == HOMOGENEOUS:
        table = _fixed_table(query.scheme, n, query.score)
        bit_stream = _iter_bits([table], n, samples, stream)
    else:
        comp = feasible_composition(query.scheme, n, query.score)
        if comp is None:
            raise InfeasibleScore(
                f"no alignments of length {n} and score {query.score} under {query.scheme}"
            )
        bit_stream = _iter_uniform_bits(n, comp.mismatches, samples, stream)
    hits = 0
    for bits in bit_stream:
        if _bits_detected(bits, n, mask, span, needed, min_gap):
            hits += 1
    return McEstimate(query, samples, hits)
