"""Brute-force consistency suites tying the fast paths to their oracles.

Each check compares an engineered implementation against a definitionally
direct one (exhaustive enumeration, literal segment scans). They back the
CLI `selfcheck` command and the test suite.
"""

from __future__ import annotations

import random

from .alignments import (
    Alignment,
    DetectionStrategy,
    ORACLE_LENGTH_LIMIT,
    Record,
    ScoringScheme,
    Seed,
    enumerate_homogeneous,
    is_homogeneous,
    is_homogeneous_segments,
    score,
    seed_detects,
    strategy_detects,
)
from .counting import HOMOGENEOUS, UNIFORM, count_homogeneous, positive_scores
from .sampling import RandomStream, _population, _unrank, sample_fixed, sample_free
from .sensitivity import hit_probability_profile

CHECK_SCHEMES = (ScoringScheme(1, 1), ScoringScheme(1, 3), ScoringScheme(2, 3))


class CheckResult(Record):
    name: str
    passed: bool
    detail: str


def _feasible_scores(scheme: ScoringScheme, n: int) -> list[int]:
    s, p = scheme.match_score, scheme.mismatch_penalty
    return [m * s - (n - m) * p for m in range(n, -1, -1)
            if m * s - (n - m) * p >= 1]


def _random_seed(rng: random.Random, max_span: int) -> Seed:
    """A canonical seed of random span in [1, max_span] and random interior."""
    span = rng.randint(1, max_span)
    interior = "".join(rng.choice("01") for _ in range(max(0, span - 2)))
    return Seed("1" + interior + "1" if span > 1 else "1")


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
    so the enumeration and the engine's count must both find 1.
    """
    got = len(enumerate_homogeneous(ScoringScheme(1, 3), 2, 2))
    if got != 1:
        return CheckResult("low-culmination-guard", False, f"enumeration = {got}, want 1")
    got = count_homogeneous(ScoringScheme(1, 3), 2, 2)
    if got != 1:
        return CheckResult("low-culmination-guard", False,
                           f"count_homogeneous = {got}, want 1")
    return CheckResult("low-culmination-guard", True,
                       "enumeration and count_homogeneous find 1 at length 2, (1,3) score 2")


def check_sampler_bijection(max_length: int) -> CheckResult:
    """Unranking is a bijection from the ranks onto the population sampled.

    For every nonempty fixed-score class and every free population,
    ``_unrank`` of every rank below the population's size, walked letter by
    letter (cold: no samples expected) and by block tables (hot: a huge
    sample count), gives every enumerated member exactly once.
    """
    for scheme in CHECK_SCHEMES:
        for n in range(1, max_length + 1):
            free = enumerate_homogeneous(scheme, n)
            populations = {None: [a.bits for a in free]}  # the free one, then one per score
            for a in free:
                populations.setdefault(score(a, scheme), []).append(a.bits)
            for target, members in populations.items():
                population = _population(scheme, n, target)
                total = sum(size for size, _ in population)
                for count in (0, 1 << 64):
                    if sorted(_unrank(population, range(total), count)) != sorted(members):
                        return CheckResult("sampler-bijection", False,
                                           f"(n={n}, score={target}, {scheme}, count={count})")
    return CheckResult("sampler-bijection", True,
                       f"every nonempty class and free population to length {max_length}")


def check_hits_match_enumeration(max_length: int) -> CheckResult:
    """Hit counts and populations of the sensitivity program equal enumeration.

    Four random strategies per scheme (span <= 6, 1-3 occurrences, any
    overlap) are checked at every length and score: against the enumerated
    homogeneous alignments to max_length, and against every sequence of the
    score, the ``all`` model, to length 12.
    """
    rng = random.Random(11)
    cases = 0
    for scheme in CHECK_SCHEMES:
        strategies = []
        for _ in range(4):
            seed = _random_seed(rng, 6)
            strategies.append(DetectionStrategy(seed, rng.randint(1, 3),
                                                rng.randint(0, seed.span - 1)))
        for n in range(1, max_length + 1):
            members: dict[tuple[str, int], list[Alignment]] = {}
            for a in enumerate_homogeneous(scheme, n):
                members.setdefault((HOMOGENEOUS, score(a, scheme)), []).append(a)
            if n <= 12:
                for bits in range(1 << n):
                    a = Alignment(n, bits)
                    members.setdefault((UNIFORM, score(a, scheme)), []).append(a)
            for (model, target), population in members.items():
                for strategy in strategies:
                    report = hit_probability_profile(strategy, scheme, target, [n], model)[0]
                    got = (report.numerator, report.denominator)
                    expected = (sum(strategy_detects(strategy, a) for a in population),
                                len(population))
                    if got != expected:
                        return CheckResult("hits-match-enumeration", False,
                                           f"{strategy} at (n={n}, score={target}, {model}) "
                                           f"under {scheme}: {got} != {expected}")
                    cases += 1
    return CheckResult("hits-match-enumeration", True,
                       f"{cases} (strategy, length, score, model) cases to length {max_length}")


def check_single_occurrence_consistency() -> CheckResult:
    """A one-occurrence strategy detects exactly when the bare seed does."""
    rng = random.Random(6)
    for _ in range(100):
        seed = _random_seed(rng, 8)
        n = rng.randint(1, 16)
        a = Alignment(n, rng.getrandbits(n))
        omega = rng.randint(0, seed.span - 1)
        strategy = DetectionStrategy(seed, 1, omega)
        if strategy_detects(strategy, a) != seed_detects(seed, a):
            return CheckResult("single-occurrence-consistency", False,
                               f"seed {seed} on {a} (max_overlap {omega})")
    return CheckResult("single-occurrence-consistency", True, "100 random pairs")


def check_sampler_validity() -> CheckResult:
    """Every generated alignment is homogeneous, with the exact score when fixed."""
    scheme = ScoringScheme(1, 3)
    n, target = 14, 6
    stream = RandomStream(7)
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


def run_selfcheck(max_length: int) -> list[CheckResult]:
    """Run every consistency suite; heavier enumerations honor max_length."""
    if not 1 <= max_length <= ORACLE_LENGTH_LIMIT:
        raise ValueError(f"max_length must be in [1, {ORACLE_LENGTH_LIMIT}]")
    return [
        check_homogeneity_criteria_agree(max_length),
        check_counts_match_enumeration(max_length),
        check_score_partition(max_length),
        check_low_culmination_guard(),
        check_sampler_bijection(max_length),
        check_hits_match_enumeration(max_length),
        check_single_occurrence_consistency(),
        check_sampler_validity(),
        check_endpoints_are_matches(max_length),
    ]
