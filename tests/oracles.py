"""Brute-force reference implementations shared across the test suite.

Everything here is deliberately direct: exhaustive enumeration, literal
definitions, no tables, and closed forms from the literature for the lengths
enumeration cannot reach. The fast paths in the package are tested against
these. Bit order matches Alignment: bit i-1 of an int holds letter b_i.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from seedsense.alignments import Alignment, ScoringScheme, is_homogeneous, score as alignment_score
from seedsense.counting import HOMOGENEOUS, lane_width

DEFAULT_REJECTION_LIMIT = 20
DEFAULT_ATTEMPT_BUDGET = 1_000_000


def walk_homogeneous(bits: int, n: int, s: int, p: int, total: int) -> bool:
    if total <= 0:
        return False
    y = 0
    for k in range(n):
        y += s if (bits >> k) & 1 else -p
        if y <= 0 or (y >= total and k < n - 1):
            return False
    return True


def seed_mask(pattern: str) -> int:
    mask = 0
    for i, ch in enumerate(pattern):
        if ch == "1":
            mask |= 1 << i
    return mask


def match_ends(bits: int, n: int, pattern: str) -> list[int]:
    """1-based end positions of every window matching the pattern."""
    mask = seed_mask(pattern)
    span = len(pattern)
    return [i + span for i in range(n - span + 1) if (bits >> i) & mask == mask]


def subset_detects(bits: int, n: int, pattern: str, occurrences: int, max_overlap: int) -> bool:
    """Existence of admissible occurrence ends, checked over every subset."""
    ends = match_ends(bits, n, pattern)
    min_gap = len(pattern) - max_overlap
    if occurrences == 1:
        return bool(ends)
    for chosen in combinations(ends, occurrences):
        if all(chosen[j + 1] - chosen[j] >= min_gap for j in range(occurrences - 1)):
            return True
    return False


def moore_class_count(step0: list[int], step1: list[int], accept: int) -> int:
    """States of the minimal automaton equivalent to a complete one whose states
    are all reachable: Moore's partition refinement, accept against the rest first,
    then split by the classes of the two successors until no class splits."""
    classes = [int(state == accept) for state in range(len(step0))]
    count = len(set(classes))
    while True:
        signatures: dict[tuple[int, int, int], int] = {}
        classes = [signatures.setdefault((c, classes[to0], classes[to1]), len(signatures))
                   for c, to0, to1 in zip(classes, step0, step1)]
        if len(signatures) == count:
            return count
        count = len(signatures)


def fixed_score_population(n: int, s: int, p: int, score: int) -> list[int]:
    """All bit patterns of length n with the given total score."""
    m, rem = divmod(score + n * p, s + p)
    if rem or not 0 <= m <= n:
        return []
    full = (1 << n) - 1
    out = []
    for mismatch_positions in combinations(range(n), n - m):
        bits = full
        for j in mismatch_positions:
            bits ^= 1 << j
        out.append(bits)
    return out


def hit_fractions(n: int, s: int, p: int, score: int, pattern: str,
                  occurrences: int = 1, max_overlap: int = 0):
    """((hom_hits, hom_total), (all_hits, all_total)) by full enumeration."""
    hom = hom_hits = alln = all_hits = 0
    for bits in fixed_score_population(n, s, p, score):
        hit = subset_detects(bits, n, pattern, occurrences, max_overlap)
        alln += 1
        all_hits += hit
        if walk_homogeneous(bits, n, s, p, score):
            hom += 1
            hom_hits += hit
    return (hom_hits, hom), (all_hits, alln)


def unrank_by_walk(population, ranks):
    """The per-letter unranking walk of Flajolet, Zimmermann & Van Cutsem over a
    sampler population of (size, steps) classes, one comparison per letter.

    A rank picks its class by subtracting sizes; with u mismatches placed the
    walk takes the match at step j when the rank is below ``steps[j][u]``, and
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


def inline_lane_sweep(step0, step1, start, scheme, score, horizon, model):
    """``counting.lane_sweep`` with each step's window computed inline, as it reaches
    the step, and every window applied by a shift and a mask, shift 0 included."""
    s, p = scheme.match_score, scheme.mismatch_penalty
    per_mismatch = s + p
    width = lane_width(scheme, score, horizon)
    size = len(step0)
    layer = [0] * size
    layer[start] = 1
    yield layer, 0, 0, 0
    base, shift, keep = 0, 0, -1
    for i in range(1, horizon + 1):
        nxt = [0] * size
        for to0, to1, v in zip(step0, step1, layer):
            if v:
                v = (v >> shift) & keep
                if v:
                    nxt[to1] += v
                    nxt[to0] += v << width
        remaining = horizon - i
        lo, hi = score - remaining * s, score + remaining * p
        if model == HOMOGENEOUS:
            lo, hi = max(lo, 1), min(hi, score - 1)
        qlo = max(base, -((hi - i * s) // per_mismatch))
        qhi = min(i, (i * s - lo) // per_mismatch)
        yield nxt, base, qlo, qhi
        shift = (qlo - base) * width
        keep = (1 << (qhi - qlo + 1) * width) - 1 if qhi >= qlo else 0
        base = qlo
        layer = nxt


def suffix_walk_count(s: int, p: int, target: int, y: int, k: int) -> int:
    """Walks of length k from ordinate y to the target with interior in (0, target)."""
    if k == 0:
        return 1 if y == target else 0
    total = 0
    for step in (s, -p):
        nxt = y + step
        if nxt == target and k == 1:
            total += 1
        elif 0 < nxt < target:
            total += suffix_walk_count(s, p, target, nxt, k - 1)
    return total


def strip_walks(a: int, b: int, t: int, steps: int) -> int:
    """Walks of `steps` +-1 steps from a to b, both inside the open strip (0, t), that
    never touch 0 or t, by the reflection principle (Mohanty 1979; Feller vol. 1,
    ch. III).

    With N(d) the unconstrained walks of that many steps and net rise d,
    reflecting in both walls gives sum over k of N(b-a+2kt) - N(b+a+2kt).
    """
    def walks(rise: int) -> int:
        if abs(rise) > steps or (steps + rise) % 2:
            return 0
        return comb(steps, (steps + rise) // 2)

    reach = steps // (2 * t) + 1
    return sum(walks(b - a + 2 * k * t) - walks(b + a + 2 * k * t)
               for k in range(-reach, reach + 1))


def strip_walk_count(n: int, t: int) -> int:
    """Homogeneous alignments of length n and score t under (1,1).

    The first and last letters are matches, and the n-2 letters between walk
    from 1 to t-1 without touching 0 or t: ``strip_walks(1, t-1, t, n-2)``.
    """
    if n == 1 or t <= 1:
        return int(n == 1 and t == 1)
    return strip_walks(1, t - 1, t, n - 2)


def run_free_count(n: int, q: int, w: int) -> int:
    """Length-n sequences with q mismatches and no run of w matches.

    The n-q matches fill the q+1 gaps the mismatches leave, fewer than w to a
    gap; inclusion-exclusion over the j gaps given w or more counts them as
    sum over j of (-1)^j C(q+1, j) C(n-q-jw+q, q).
    """
    matches = n - q
    return sum((-1) ** j * comb(q + 1, j) * comb(matches - j * w + q, q)
               for j in range(min(q + 1, matches // w) + 1))


class GenerationBudgetExceeded(RuntimeError):
    """Rejection sampling exhausted its attempt budget without enough accepts."""


def sample_rejection(scheme: ScoringScheme, n: int, score: int | None, count: int,
                     rng_seed: int, limit: int = DEFAULT_REJECTION_LIMIT,
                     max_attempts: int = DEFAULT_ATTEMPT_BUDGET) -> list[Alignment]:
    """Uniform sampling by accept-reject.

    Draws length-n bit strings from ``random.Random(rng_seed).getrandbits``
    and keeps the homogeneous ones (with the requested score, when fixed).
    The acceptance rate decays exponentially with n, hence the hard length
    limit and attempt budget.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if n > limit:
        raise ValueError(f"length {n} exceeds the rejection-sampling limit {limit}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    rng = random.Random(rng_seed)
    out: list[Alignment] = []
    attempts = 0
    while len(out) < count:
        if attempts >= max_attempts:
            raise GenerationBudgetExceeded(
                f"{len(out)}/{count} accepted after {attempts} attempts"
            )
        attempts += 1
        candidate = Alignment(n, rng.getrandbits(n))
        if score is not None and alignment_score(candidate, scheme) != score:
            continue
        if is_homogeneous(candidate, scheme):
            out.append(candidate)
    return out
