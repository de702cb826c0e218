"""Exact hit probability of a detection strategy on score-constrained alignments.

Two alignment models share one dynamic program:

* ``homogeneous``: uniform over homogeneous alignments of length n and
  score S (walks confined to the open band (0, S) until the final step);
* ``all``: uniform over every binary sequence of length n and score S.

The program is ``counting.profile_counts`` run over the states of a scanner
automaton, the same sweep that counts populations and builds the samplers.
At each requested length it gives both sides of the answer: the count of
score S summed over all states is the population, in the accept state the
hits, and that integer pair is the exact probability. The scanner is
a deterministic automaton over {0, 1} whose state is the set of seed windows
still alive, as a bitmask, plus the occurrences still needed: the Shift-And
state of Baeza-Yates & Gonnet ("A new approach to text searching", CACM
1992). With one occurrence left, a window that can only complete after an
older live window is dropped; on every seed checked, that leaves the
automaton minimal with no minimization pass. For the weight-11, span-18
seed 110100110010101111 it has 243 states, the Moore-minimal count
(Kucherov, Noé & Roytberg, JBCB 2006), against 283 with every live window
kept and 756 for the suffix automaton.

A strategy and its mirror, the reversed seed with the same occurrences and
overlap, have the same hit counts in both models, but their scanners often
differ in size, and the sweep costs time in proportion to the states. So
``_scanner`` builds one of the two, the mirror when the seed's required
positions sit right of its center: the seed above is swept through its
mirror's 174 states.
"""

from __future__ import annotations

from itertools import islice

from .alignments import DetectionStrategy, Record, ScoringScheme, Seed
from .counting import HOMOGENEOUS, InfeasibleScore, check_model, profile_counts


class SensitivityQuery(Record):
    strategy: DetectionStrategy
    scheme: ScoringScheme
    length: int
    score: int
    model: str = HOMOGENEOUS

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        check_model(self.model, self.score)


class SensitivityReport(Record):
    """Exact hit probability as detected count over model population size."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("need 0 <= numerator <= denominator")

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

    With one occurrence left, a live window e is dropped when an older live
    window d (d > e) still needs a subset of e's remaining required
    positions, ``required >> (d + 1)`` within ``required >> (e + 1)``: on
    every continuation that completes e, d completes sooner, and the accept
    state absorbs, so e changes nothing. With two or more occurrences left
    every window is kept, because after d fires a dominated younger window
    can still be the next occurrence. Over the 651 weight-9 seeds of span at
    most 14, and samples of other weights, every single-occurrence scanner
    built this way has no two equivalent states.
    """

    def __init__(self, strategy: DetectionStrategy):
        span = strategy.seed.span
        last = 1 << (span - 1)
        required = strategy.seed.required_mask
        # bit d is set when seed position d is a don't-care
        survives_mismatch = ~required & ((last << 1) - 1)
        after_fire = (1 << strategy.max_overlap) - 1
        # bit e of dominated[d] is set when the younger window e needs every position
        # that window d still needs
        dominated = [sum(1 << e for e in range(d)
                         if not required >> (d + 1) & ~(required >> (e + 1)))
                     for d in range(span)]
        occurrence = 1 << span  # one occurrence still needed, in a state key
        start = strategy.required_occurrences << span
        keys = [0, start]
        index = {0: 0, start: 1}
        step0: list[int] = [0]
        step1: list[int] = [0]
        for key in islice(keys, 1, None):
            live = key & (occurrence - 1)
            moved = live << 1 | 1
            for table, windows in ((step0, moved & survives_mismatch), (step1, moved)):
                base = key - live
                if windows & last:
                    if base == occurrence:
                        table.append(0)  # the last occurrence needed fired
                        continue
                    base -= occurrence
                    windows &= after_fire
                if base == occurrence:
                    kill, rest = 0, windows
                    while rest:
                        low = rest & -rest
                        kill |= dominated[low.bit_length() - 1]
                        rest ^= low
                    windows &= ~kill
                target = base | windows
                sid = index.get(target)
                if sid is None:
                    sid = index[target] = len(keys)
                    keys.append(target)
                table.append(sid)
        self.step0 = step0
        self.step1 = step1
        self.accept = 0
        self.start = 1
        self.size = len(keys)


def _scanner(strategy: DetectionStrategy) -> _HitAutomaton:
    """The scanner of the strategy, or of its mirror when the seed leans right.

    Reversal maps each alignment model onto itself and preserves detection,
    so both scanners give the same hit counts. The mirror is built when the
    seed's required positions sit past its center, ``2 * sum(positions) >
    weight * (span - 1)``, so a palindrome ties and gets its own. This one
    rule, with no second build, takes the 651 weight-9, span <= 14 seeds to
    31,094 states; the smaller of each pair would be 30,954.
    """
    seed = strategy.seed
    positions = [i for i, ch in enumerate(seed.pattern) if ch == "1"]
    if 2 * sum(positions) > seed.weight * (seed.span - 1):
        strategy = DetectionStrategy(Seed(seed.pattern[::-1]), strategy.required_occurrences,
                                     strategy.max_overlap)
    return _HitAutomaton(strategy)


def hit_probability_profile(strategy: DetectionStrategy, scheme: ScoringScheme, score: int,
                            lengths: list[int],
                            model: str = HOMOGENEOUS) -> list[SensitivityReport]:
    """Exact hit probabilities for several lengths at one fixed score.

    All lengths share a single counting pass, so sweeping a length range
    costs about as much as the longest single query.
    """
    if not lengths:
        raise ValueError("lengths must be nonempty")
    if min(lengths) < 1:
        raise ValueError("length must be >= 1")
    check_model(model, score)
    scanner = _scanner(strategy)
    profile = profile_counts(scanner.step0, scanner.step1, scanner.start, scanner.accept,
                             scheme, score, lengths, model)
    reports = []
    for n in lengths:
        hits, population = profile[n]
        if population == 0:
            raise InfeasibleScore.empty(scheme, n, score, model)
        reports.append(SensitivityReport(hits, population))
    return reports


def hit_probability(query: SensitivityQuery) -> SensitivityReport:
    """Exact probability that the strategy detects a random alignment of the model.

    A seed span longer than the alignment is not an error; it simply yields
    probability 0.
    """
    return hit_probability_profile(
        query.strategy, query.scheme, query.score, [query.length], query.model
    )[0]
