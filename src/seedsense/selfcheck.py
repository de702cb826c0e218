"""Brute-force consistency suites tying the fast paths to their oracles.

Each check compares an engineered implementation against a definitionally
direct one (exhaustive enumeration, literal segment scans, the backward
suffix table). They back the CLI `selfcheck` command and the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .alignments import (
    Alignment,
    DetectionStrategy,
    ORACLE_LENGTH_LIMIT,
    ScoringScheme,
    Seed,
    enumerate_homogeneous,
    is_homogeneous,
    is_homogeneous_segments,
    score,
    seed_detects,
    strategy_detects,
)
from .counting import CountTableD, count_homogeneous, positive_scores
from .sampling import RandomStream, _population, sample_fixed, sample_free

CHECK_SCHEMES = (ScoringScheme(1, 1), ScoringScheme(1, 3), ScoringScheme(2, 3))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _feasible_scores(scheme: ScoringScheme, n: int) -> list[int]:
    s, p = scheme.match_score, scheme.mismatch_penalty
    return [m * s - (n - m) * p for m in range(n, -1, -1)
            if m * s - (n - m) * p >= 1]


def check_homogeneity_criteria_agree(max_length: int) -> CheckResult:
    """Walk criterion and literal segment scan agree on every sequence."""
    for scheme in CHECK_SCHEMES:
        for n in range(1, max_length + 1):
            for bits in range(1 << n):
                a = Alignment(n, bits)
                if is_homogeneous(a, scheme) != is_homogeneous_segments(a, scheme):
                    return CheckResult("homogeneity-criteria-agree", False,
                                       f"disagreement at {a} under {scheme}")
    return CheckResult("homogeneity-criteria-agree", True,
                       f"all sequences to length {max_length}, {len(CHECK_SCHEMES)} schemes")


def check_counts_match_enumeration(max_length: int) -> CheckResult:
    """Table-driven counts equal brute-force enumeration sizes, fixed and free score."""
    for scheme in CHECK_SCHEMES:
        for n in range(1, max_length + 1):
            free_total = 0
            for target in _feasible_scores(scheme, n):
                expected = len(enumerate_homogeneous(scheme, n, target))
                got = count_homogeneous(scheme, n, target)
                if got != expected:
                    return CheckResult("counts-match-enumeration", False,
                                       f"(n={n}, score={target}, {scheme}): {got} != {expected}")
                free_total += expected
            if count_homogeneous(scheme, n) != free_total:
                return CheckResult("counts-match-enumeration", False,
                                   f"free-score count mismatch at n={n}, {scheme}")
            if free_total != len(enumerate_homogeneous(scheme, n)):
                return CheckResult("counts-match-enumeration", False,
                                   f"free-score enumeration mismatch at n={n}, {scheme}")
    return CheckResult("counts-match-enumeration", True,
                       f"fixed and free scores to length {max_length}")


def check_score_partition(max_length: int) -> CheckResult:
    """positive_scores gives exactly the feasible positive scores, the classes a free count sums."""
    for scheme in CHECK_SCHEMES:
        for n in range(1, max_length + 1):
            listed = list(positive_scores(scheme, n))
            feasible = sorted(_feasible_scores(scheme, n))
            if listed != feasible:
                return CheckResult("score-partition", False,
                                   f"n={n}, {scheme}: {listed} != {feasible}")
    return CheckResult("score-partition", True, f"lengths to {max_length}")


def check_low_culmination_guard() -> CheckResult:
    """Regression: penalty larger than (score - match) must not zero the count.

    With scheme (1,3) and target score 2 the two-step all-match walk exists,
    so the suffix count from the origin and the engine's count must both be 1.
    """
    got = CountTableD(ScoringScheme(1, 3), 2, 2).count(0, 2)
    if got != 1:
        return CheckResult("low-culmination-guard", False, f"count(0, 2) = {got}, want 1")
    got = count_homogeneous(ScoringScheme(1, 3), 2, 2)
    if got != 1:
        return CheckResult("low-culmination-guard", False,
                           f"count_homogeneous = {got}, want 1")
    return CheckResult("low-culmination-guard", True, "count(0, 2) == 1 for (1,3) score 2")


def check_prefix_flip_identity(max_length: int) -> CheckResult:
    """Band-confined prefix counts equal flipped suffix counts.

    The sampler's completion count after a match at step j, with u
    mismatches placed, is a forward prefix count read through the flip. It
    is compared with the backward suffix count ``count(y, n - j - 1)`` from
    the ordinate y the match reaches, taken as 0 when y is not positive.
    """
    for scheme in CHECK_SCHEMES:
        s, p = scheme.match_score, scheme.mismatch_penalty
        for n in range(2, max_length + 1):
            for target in _feasible_scores(scheme, n):
                table = CountTableD(scheme, target, n)
                if not table.count(0, n):
                    continue  # an empty population has no sampler to check
                [(_, steps)] = _population(scheme, n, target)
                for j, after_match in enumerate(steps):
                    for u, got in enumerate(after_match):
                        y = (j + 1) * s - u * (s + p)
                        if got != (table.count(y, n - j - 1) if y > 0 else 0):
                            return CheckResult(
                                "prefix-flip-identity", False,
                                f"(n={n}, score={target}, j={j}, u={u}, {scheme})")
    return CheckResult("prefix-flip-identity", True, f"lengths to {max_length}")


def check_single_occurrence_consistency(cases: int = 100, rng_seed: int = 6) -> CheckResult:
    """A one-occurrence strategy detects exactly when the bare seed does."""
    rng = random.Random(rng_seed)
    for _ in range(cases):
        span = rng.randint(1, 8)
        interior = "".join(rng.choice("01") for _ in range(max(0, span - 2)))
        seed = Seed("1" + interior + "1" if span > 1 else "1")
        n = rng.randint(1, 16)
        a = Alignment(n, rng.getrandbits(n))
        omega = rng.randint(0, span - 1)
        strategy = DetectionStrategy(seed, 1, omega)
        if strategy_detects(strategy, a) != seed_detects(seed, a):
            return CheckResult("single-occurrence-consistency", False,
                               f"seed {seed} on {a} (max_overlap {omega})")
    return CheckResult("single-occurrence-consistency", True, f"{cases} random pairs")


def check_sampler_validity(rng_seed: int = 7) -> CheckResult:
    """Every generated alignment is homogeneous, with the exact score when fixed."""
    scheme = ScoringScheme(1, 3)
    n, target = 14, 6
    stream = RandomStream(rng_seed)
    for a in map(Alignment.from_string, sample_fixed(scheme, n, target, 300, stream)):
        if not is_homogeneous(a, scheme) or score(a, scheme) != target:
            return CheckResult("sampler-validity", False, f"bad fixed-score sample {a}")
    for a in map(Alignment.from_string, sample_free(scheme, n, 300, stream)):
        if not is_homogeneous(a, scheme):
            return CheckResult("sampler-validity", False, f"bad free-score sample {a}")
    return CheckResult("sampler-validity", True, "600 samples, fixed and free score")


def check_endpoints_are_matches(max_length: int) -> CheckResult:
    """Every homogeneous alignment starts and ends with a match."""
    for scheme in CHECK_SCHEMES:
        for n in range(1, max_length + 1):
            for a in enumerate_homogeneous(scheme, n):
                text = str(a)
                if text[0] != "1" or text[-1] != "1":
                    return CheckResult("endpoints-are-matches", False, f"{a} under {scheme}")
    return CheckResult("endpoints-are-matches", True, f"lengths to {max_length}")


def run_selfcheck(max_length: int = 14) -> list[CheckResult]:
    """Run every consistency suite; heavier enumerations honor max_length."""
    if not 1 <= max_length <= ORACLE_LENGTH_LIMIT:
        raise ValueError(f"max_length must be in [1, {ORACLE_LENGTH_LIMIT}]")
    return [
        check_homogeneity_criteria_agree(max_length),
        check_counts_match_enumeration(max_length),
        check_score_partition(max_length),
        check_low_culmination_guard(),
        check_prefix_flip_identity(max_length),
        check_single_occurrence_consistency(),
        check_sampler_validity(),
        check_endpoints_are_matches(max_length),
    ]
