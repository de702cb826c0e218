"""Core types for gapless match/mismatch alignments, their score walks, and spaced seeds.

An alignment is a binary sequence (1 = match, 0 = mismatch). Under a scoring
scheme it maps to a lattice walk of prefix scores; the alignment is
homogeneous when its total score is positive and strictly exceeds the score
of every proper contiguous segment, which is the same as saying the walk
stays strictly positive and strictly below its final ordinate everywhere in
between.
"""

from __future__ import annotations

from dataclasses import dataclass

ORACLE_LENGTH_LIMIT = 20


@dataclass(frozen=True)
class ScoringScheme:
    """Per-letter scores: +match_score per match, -mismatch_penalty per mismatch."""

    match_score: int = 1
    mismatch_penalty: int = 3

    def __post_init__(self) -> None:
        if self.match_score < 1:
            raise ValueError("match_score must be a positive integer")
        if self.mismatch_penalty < 1:
            raise ValueError("mismatch_penalty must be a positive integer")

    def letter_score(self, letter: int) -> int:
        return self.match_score if letter else -self.mismatch_penalty


@dataclass(frozen=True)
class Alignment:
    """A gapless alignment packed into an int; bit i-1 holds letter b_i (1 = match)."""

    length: int
    bits: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("alignment length must be >= 1")
        if not 0 <= self.bits < (1 << self.length):
            raise ValueError("bits out of range for the given length")

    @classmethod
    def from_string(cls, text: str) -> Alignment:
        if not text or set(text) - {"0", "1"}:
            raise ValueError(f"alignment must be a nonempty 0/1 string, got {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def __str__(self) -> str:
        # letter b_1 first: the binary numeral, zero-padded to the length, reversed
        return format(self.bits, f"0{self.length}b")[::-1]


@dataclass(frozen=True)
class Seed:
    """Spaced-seed pattern over '1' (required match) and '0' (don't care).

    Canonical form: the pattern starts and ends with '1'. Any other pattern
    detects exactly the same alignments as a shorter canonical one.
    """

    pattern: str

    def __post_init__(self) -> None:
        if not self.pattern or set(self.pattern) - {"0", "1"}:
            raise ValueError(f"seed must be a nonempty 0/1 string, got {self.pattern!r}")
        if self.pattern[0] != "1" or self.pattern[-1] != "1":
            raise ValueError("seed pattern must start and end with '1'")

    @property
    def span(self) -> int:
        return len(self.pattern)

    @property
    def weight(self) -> int:
        return self.pattern.count("1")

    @property
    def required_mask(self) -> int:
        mask = 0
        for i, ch in enumerate(self.pattern):
            if ch == "1":
                mask |= 1 << i
        return mask

    def __str__(self) -> str:
        return self.pattern


@dataclass(frozen=True)
class DetectionStrategy:
    """Hit rule: required_occurrences seed matches whose consecutive windows
    overlap by at most max_overlap letters (end positions at least
    span - max_overlap apart)."""

    seed: Seed
    required_occurrences: int = 1
    max_overlap: int = 0

    def __post_init__(self) -> None:
        if self.required_occurrences < 1:
            raise ValueError("required_occurrences must be >= 1")
        if not 0 <= self.max_overlap <= self.seed.span - 1:
            raise ValueError("max_overlap must be in [0, span - 1]")


def score(alignment: Alignment, scheme: ScoringScheme) -> int:
    """Total alignment score: sum of per-letter scores."""
    matches = alignment.bits.bit_count()
    return matches * scheme.match_score - (alignment.length - matches) * scheme.mismatch_penalty


def _walk_homogeneous(bits: int, n: int, s: int, p: int, total: int) -> bool:
    # prefix ordinates strictly positive, strictly below the total before the end
    if total <= 0:
        return False
    y = 0
    last = n - 1
    for k in range(n):
        y += s if (bits >> k) & 1 else -p
        if y <= 0 or (y >= total and k < last):
            return False
    return True


def is_homogeneous(alignment: Alignment, scheme: ScoringScheme) -> bool:
    """Walk criterion: positive total, every proper prefix ordinate in (0, total)."""
    total = score(alignment, scheme)
    return _walk_homogeneous(
        alignment.bits, alignment.length, scheme.match_score, scheme.mismatch_penalty, total
    )


def is_homogeneous_segments(alignment: Alignment, scheme: ScoringScheme) -> bool:
    """Literal definition: the total strictly exceeds every proper contiguous
    segment score, and is positive (the empty segment counts as score 0)."""
    n = alignment.length
    prefix = [0] * (n + 1)
    for k in range(n):
        prefix[k + 1] = prefix[k] + scheme.letter_score((alignment.bits >> k) & 1)
    total = prefix[n]
    if total <= 0:
        return False
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) != (0, n) and prefix[j] - prefix[i] >= total:
                return False
    return True


def seed_detects(seed: Seed, alignment: Alignment) -> bool:
    """True iff some window of the alignment matches the seed at every required position."""
    mask = seed.required_mask
    bits = alignment.bits
    for i in range(alignment.length - seed.span + 1):
        if (bits >> i) & mask == mask:
            return True
    return False


def _window_starts(bits: int, mask: int, starts: int) -> int:
    """The bits of `starts` at which a window of `bits` matches every required position.

    Bit i survives iff ``bits >> i`` has every bit of `mask`: the AND of
    ``bits >> p`` over the required positions p. It works on any int, so
    `bits` may hold many alignments in lanes, with `starts` marking the
    window starts that lie inside each lane.
    """
    while mask:
        p = (mask & -mask).bit_length() - 1
        starts &= bits >> p
        mask &= mask - 1
    return starts


def _admissible(found: int, needed: int, min_gap: int, ones: int, top: int) -> int:
    """How many lanes of `found` hold `needed` window starts at least min_gap apart.

    A lane has its low bit in `ones` and a spare top bit in `top`, at or
    above its last start plus min_gap; one alignment is one lane (``ones =
    1``). Greedy earliest-admissible selection, optimal for a minimum-gap
    constraint (the gap between two starts equals the gap between their
    ends), runs in every lane at once: subtracting `ones` under the top bits,
    which absorb every borrow (Lamport, "Multiple byte processing with
    full-word instructions", CACM 1975), finds each lane's lowest start.
    """
    for _ in range(needed - 1):
        first = found & ~((found | top) - ones)  # each lane's lowest start
        found &= ~((first << min_gap | top) - ones)  # drop the starts less than min_gap after it
    return ((found | top) - ones & top).bit_count()


def strategy_detects(strategy: DetectionStrategy, alignment: Alignment) -> bool:
    """True iff there are required_occurrences seed matches with consecutive
    end positions at least span - max_overlap apart (``_admissible`` on one lane)."""
    seed = strategy.seed
    n = alignment.length
    found = _window_starts(alignment.bits, seed.required_mask,
                           (1 << max(n - seed.span + 1, 0)) - 1)
    return _admissible(found, strategy.required_occurrences,
                       seed.span - strategy.max_overlap, 1, 1 << n) == 1


def enumerate_homogeneous(scheme: ScoringScheme, n: int,
                          score: int | None = None) -> list[Alignment]:
    """Brute-force oracle: all homogeneous alignments of length n (and the given
    score, when fixed), in lexicographic order of their 0/1 text form."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > ORACLE_LENGTH_LIMIT:
        raise ValueError(f"length {n} exceeds the enumeration limit {ORACLE_LENGTH_LIMIT}")
    s, p = scheme.match_score, scheme.mismatch_penalty
    out = []
    for bits in range(1 << n):
        matches = bits.bit_count()
        total = matches * s - (n - matches) * p
        if score is not None and total != score:
            continue
        if _walk_homogeneous(bits, n, s, p, total):
            out.append(Alignment(n, bits))
    out.sort(key=str)
    return out
