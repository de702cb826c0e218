"""End-to-end acceptance gates.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them
inline). Ground truth at length 40 is established live by exhaustively
enumerating every fixed-score sequence (binomial(40, q) mismatch placements
per score) and scanning each one with the definitional homogeneity and
detection oracles.

The `*_as_stated` gates check the reference data: the decimal table
REFERENCE_ROWS, the rank-1 seeds per model, the miss-rate relation of the
curves and the sampler-uniformity parameters. That data was corrected
against the enumeration where the source had it wrong (see the comments at
REFERENCE_ROWS), and every reference decimal is asserted to round from the
frozen enumerated fraction. The `*_verified` companions check the program
against the enumeration directly.
"""

import csv
import math
import random
import resource
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
import scipy.stats

from seedsense.alignments import (
    Alignment,
    DetectionStrategy,
    ScoringScheme,
    Seed,
    enumerate_homogeneous,
    is_homogeneous,
    score as alignment_score,
)
from seedsense.cli import run as cli_run
from seedsense.counting import HOMOGENEOUS, UNIFORM, count_homogeneous
from seedsense.sampling import RandomStream, mc_estimate, sample_fixed
from seedsense.search import SearchSpec, find_optimal
from seedsense.sensitivity import SensitivityQuery, hit_probability, hit_probability_profile
from seedsense.selfcheck import (
    check_counts_match_enumeration,
    check_homogeneity_criteria_agree,
    check_low_culmination_guard,
    check_score_partition,
)

from oracles import seed_mask, subset_detects, walk_homogeneous

SCHEME = ScoringScheme(1, 3)
LENGTH = 40

# (pattern, score, weight, homogeneous, all): reference decimals, each
# compared at half a unit of its own last digit (see rounds_to).
#
# The source printed its two model columns swapped in every row marked
# "swapped" below; the weight-11 row at score 20 was already in this
# orientation. The homogeneous population sizes (611072 at score 12, 413392
# at 16, 134976 at 20, 29526 at 24, against 18643560, 3838380, 658008 and
# 91390 for all alignments) settle which enumerated fraction each column
# holds. Two source decimals match neither model and were replaced by the
# enumerated fraction rounded to the same number of digits:
#   1110010110111 at 16, homogeneous: source "0.988887";
#       enumerated 408791/413392 = 0.988870
#   11101100101111 at 16, all: source "0.98742";
#       enumerated 3790054/3838380 = 0.98741
# Criteria 1 and 2 assert that every entry rounds from ENUMERATED_ROWS.
REFERENCE_ROWS = [
    ("1110010110111", 12, 9, "0.902372", "0.986271"),  # swapped
    ("111001001010111", 12, 9, "0.917869", "0.983516"),  # swapped
    ("1110010110111", 16, 9, "0.988870", "0.998399"),  # swapped, replaced
    ("1100110101111", 16, 9, "0.989535", "0.998353"),  # swapped
    ("11101100101111", 16, 10, "0.938499", "0.98741"),  # swapped, replaced
    ("110110010101111", 16, 10, "0.942769", "0.98740"),  # swapped
    ("11101001110111", 20, 10, "0.996303", "0.999172"),  # swapped
    ("110110010101111", 20, 10, "0.996555", "0.999065"),  # swapped
    ("111011101001111", 20, 11, "0.975462", "0.993076"),
    ("111010011110111", 24, 11, "0.999661", "0.999891"),  # swapped
]

SPACED_SEED_18 = "110100110010101111"  # weight 11, span 18
CONTIGUOUS_11 = "1" * 11

# frozen enumeration results; the session fixture re-derives and asserts them
# (pattern, score) -> (hom_hits, hom_total, all_hits, all_total)
ENUMERATED_ROWS = {
    ("1110010110111", 12): (551414, 611072, 18387598, 18643560),
    ("111001001010111", 12): (560884, 611072, 18336248, 18643560),
    ("1110010110111", 16): (408791, 413392, 3832234, 3838380),
    ("1100110101111", 16): (409066, 413392, 3832060, 3838380),
    ("11101100101111", 16): (387968, 413392, 3790054, 3838380),
    ("110110010101111", 16): (389733, 413392, 3790031, 3838380),
    ("11101001110111", 20): (134477, 134976, 657463, 658008),
    ("110110010101111", 20): (134511, 134976, 657393, 658008),
    ("111011101001111", 20): (131664, 134976, 653452, 658008),
    ("111010011110111", 24): (29516, 29526, 91380, 91390),
    (SPACED_SEED_18, 16): (335115, 413392, 3612129, 3838380),
    (CONTIGUOUS_11, 16): (193609, 413392, 2935541, 3838380),
}


def report_line(criterion, passed, detail):
    print(f"CRITERION {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


def rounds_to(exact, stated):
    """Whether the exact Fraction lies within half a unit of the last digit
    of the stated decimal string, i.e. rounds to it at that precision."""
    digits = len(stated.partition(".")[2])
    return abs(exact - Fraction(stated)) * 2 * 10 ** digits <= 1


def _sweep_fixed_score(n, total, patterns):
    """Exhaustively enumerate all length-n sequences of the given score and
    tally homogeneous membership plus detection per seed pattern."""
    s, p = 1, 3
    m = (total + n * p) // (s + p)
    q = n - m
    masks = [(pattern, seed_mask(pattern), len(pattern)) for pattern in patterns]
    full = (1 << n) - 1
    hom_total = all_total = 0
    all_hits = dict.fromkeys(patterns, 0)
    hom_hits = dict.fromkeys(patterns, 0)
    for mismatch_positions in combinations(range(n), q):
        bits = full
        for j in mismatch_positions:
            bits ^= 1 << j
        all_total += 1
        hom = walk_homogeneous(bits, n, s, p, total)
        if hom:
            hom_total += 1
        for pattern, mask, span in masks:
            hit = False
            for i in range(n - span + 1):
                if (bits >> i) & mask == mask:
                    hit = True
                    break
            if hit:
                all_hits[pattern] += 1
                if hom:
                    hom_hits[pattern] += 1
    return {pattern: (hom_hits[pattern], hom_total, all_hits[pattern], all_total)
            for pattern in patterns}


@pytest.fixture(scope="session")
def enumerated():
    """Live exhaustive enumeration for every referenced (pattern, score) pair."""
    by_score = {}
    for pattern, total in ENUMERATED_ROWS:
        by_score.setdefault(total, []).append(pattern)
    rows = {}
    timings = {}
    for total, patterns in sorted(by_score.items()):
        started = time.perf_counter()
        sweep = _sweep_fixed_score(LENGTH, total, patterns)
        timings[total] = time.perf_counter() - started
        for pattern in patterns:
            rows[(pattern, total)] = sweep[pattern]
    assert rows == ENUMERATED_ROWS, "enumeration no longer matches the frozen ground truth"
    return {"rows": rows, "timings": timings}


def _dp_pair(pattern, total):
    strategy = DetectionStrategy(Seed(pattern))
    started = time.perf_counter()
    hom = hit_probability(SensitivityQuery(strategy, SCHEME, LENGTH, total, HOMOGENEOUS))
    hom_elapsed = time.perf_counter() - started
    started = time.perf_counter()
    uni = hit_probability(SensitivityQuery(strategy, SCHEME, LENGTH, total, UNIFORM))
    uni_elapsed = time.perf_counter() - started
    return hom, hom_elapsed, uni, uni_elapsed


@pytest.fixture(scope="session")
def table_dp():
    """Exact model probabilities for every reference row, with query timings."""
    out = {}
    for pattern, total, _, _, _ in REFERENCE_ROWS:
        if (pattern, total) not in out:
            out[(pattern, total)] = _dp_pair(pattern, total)
    return out


class TestCriterion1HomogeneousTable:
    def test_criterion_1_reference_rows_as_stated(self, table_dp):
        """The homogeneous-model probability rounds to the reference decimal,
        and so does the enumerated homogeneous fraction it stands for."""
        failures = []
        for pattern, total, weight, stated_hom, _ in REFERENCE_ROWS:
            hom_hits, hom_total, _, _ = ENUMERATED_ROWS[(pattern, total)]
            assert rounds_to(Fraction(hom_hits, hom_total), stated_hom), (
                f"reference {stated_hom} for {pattern} at score {total} does not "
                f"round from the enumerated {hom_hits}/{hom_total}")
            hom, _, _, _ = table_dp[(pattern, total)]
            if not rounds_to(Fraction(hom.numerator, hom.denominator), stated_hom):
                failures.append(
                    f"  {pattern} score={total} w={weight}: computed "
                    f"{hom.numerator / hom.denominator:.7f}, reference {stated_hom}")
        report_line(1, not failures,
                    f"{len(REFERENCE_ROWS) - len(failures)}/{len(REFERENCE_ROWS)} "
                    f"homogeneous rows round to the reference decimals")
        assert not failures, (
            "homogeneous probabilities do not round to the reference decimals:\n"
            + "\n".join(failures))

    def test_criterion_1_verified_against_enumeration(self, table_dp, enumerated):
        for pattern, total, _, _, _ in REFERENCE_ROWS:
            hom, hom_elapsed, _, _ = table_dp[(pattern, total)]
            hom_hits, hom_total, _, _ = enumerated["rows"][(pattern, total)]
            assert (hom.numerator, hom.denominator) == (hom_hits, hom_total)
            assert hom_elapsed < 1.0
        report_line("1-verified", True,
                    "all 10 homogeneous rows equal the enumerated fractions exactly, "
                    "< 1 s per query")


class TestCriterion2UniformTable:
    def test_criterion_2_all_model_gated_on_oracle(self, table_dp, enumerated):
        """The all-alignments DP equals the exhaustive oracle, and both round to
        the reference decimal."""
        mismatches = []
        for pattern, total, weight, _, stated_all in REFERENCE_ROWS:
            _, _, uni, uni_elapsed = table_dp[(pattern, total)]
            _, _, all_hits, all_total = enumerated["rows"][(pattern, total)]
            assert (uni.numerator, uni.denominator) == (all_hits, all_total), \
                f"DP disagrees with the exhaustive oracle for {pattern} at score {total}"
            assert uni_elapsed < 1.0
            if not rounds_to(Fraction(all_hits, all_total), stated_all):
                mismatches.append(f"  {pattern} score={total} w={weight}: computed "
                                  f"{all_hits / all_total:.7f}, reference {stated_all}")
        assert enumerated["timings"][12] < 600, "oracle enumeration exceeded its budget"
        report_line(2, not mismatches,
                    f"all 10 rows equal the binomial(40, q) enumeration exactly "
                    f"(oracle for score 12: {enumerated['timings'][12]:.0f} s); "
                    f"{len(REFERENCE_ROWS) - len(mismatches)}/{len(REFERENCE_ROWS)} "
                    f"round to the reference decimals")
        assert not mismatches, (
            "all-alignment probabilities do not round to the reference decimals:\n"
            + "\n".join(mismatches))


@pytest.fixture(scope="session")
def searches():
    """The four optimizer runs the reference table is built from, each with its
    wall time in seconds."""
    out = {}
    for weight, total, model in ((9, 12, HOMOGENEOUS), (9, 12, UNIFORM),
                                 (10, 20, HOMOGENEOUS), (10, 20, UNIFORM)):
        spec = SearchSpec(weight, 15, SCHEME, LENGTH, total, model, top_k=5)
        started = time.perf_counter()
        ranked = find_optimal(spec, threads=2)
        out[(weight, total, model)] = ranked, time.perf_counter() - started
    return out


class TestCriterion3Optimizer:
    def test_criterion_3_rank1_as_stated(self, searches):
        """The stated rank-1 seed of each search. The source printed these with
        the homogeneous and all-alignment labels exchanged, the same swap as in
        its REFERENCE_ROWS columns; the labels here are the corrected ones."""
        stated = {
            (9, 12, HOMOGENEOUS): "111001001010111",
            (9, 12, UNIFORM): "1110010110111",
            (10, 20, HOMOGENEOUS): "110110010101111",
            (10, 20, UNIFORM): "11101001110111",
        }
        failures = []
        for key, expected in stated.items():
            got = searches[key][0].entries[0].seed.pattern
            if got != expected:
                failures.append(f"  w={key[0]} score={key[1]} {key[2]}: rank-1 {got}, "
                                f"stated {expected}")
        report_line(3, not failures, f"{4 - len(failures)}/4 stated rank-1 seeds reproduced")
        assert not failures, (
            "optimizer rank-1 seeds differ from the stated ones:\n" + "\n".join(failures))

    def test_criterion_3_verified_optima(self, searches, enumerated):
        expected = {
            (9, 12, HOMOGENEOUS): "111001001010111",
            (9, 12, UNIFORM): "1110010110111",
            (10, 20, HOMOGENEOUS): "110110010101111",
            (10, 20, UNIFORM): "11101001110111",
        }
        for key, pattern in expected.items():
            ranked, elapsed = searches[key]
            top = ranked.entries[0]
            assert top.seed.pattern == pattern
            assert elapsed < 600
            hom_hits, hom_total, all_hits, all_total = enumerated["rows"][(pattern, key[1])]
            truth = (hom_hits, hom_total) if key[2] == HOMOGENEOUS else (all_hits, all_total)
            assert (top.numerator, top.denominator) == truth
            standalone = hit_probability(SensitivityQuery(
                DetectionStrategy(Seed(pattern)), SCHEME, LENGTH, key[1], key[2]))
            assert (standalone.numerator, standalone.denominator) == truth
        report_line("3-verified", True,
                    "all four searches return the enumeration-verified optimum, "
                    "< 10 min each")


class TestCriterion4CountingOracles:
    def test_criterion_4_counting_oracle_equivalence(self):
        started = time.perf_counter()
        results = [
            check_counts_match_enumeration(14),
            check_score_partition(14),
            check_low_culmination_guard(),
            check_homogeneity_criteria_agree(14),
        ]
        elapsed = time.perf_counter() - started
        failed = [r for r in results if not r.passed]
        report_line(4, not failed and elapsed < 120,
                    f"counting oracles to length 14 in {elapsed:.1f} s")
        assert not failed, failed
        assert elapsed < 120


class TestCriterion5SensitivityOracles:
    def test_criterion_5_sensitivity_oracle_equivalence(self):
        started = time.perf_counter()
        rng = random.Random(20240810)
        patterns = []
        while len(patterns) < 20:
            span = rng.randint(1, 8)
            pattern = "1" if span == 1 else \
                "1" + "".join(rng.choice("01") for _ in range(span - 2)) + "1"
            patterns.append(pattern)
        schemes = (ScoringScheme(1, 1), ScoringScheme(1, 3))
        populations = {}
        for scheme in schemes:
            s, p = scheme.match_score, scheme.mismatch_penalty
            for n in range(1, 17):
                buckets = {}
                for bits in range(1 << n):
                    matches = bits.bit_count()
                    total = matches * s - (n - matches) * p
                    if total < 1:
                        continue
                    entry = buckets.setdefault(total, ([], []))
                    entry[0].append(bits)
                    if walk_homogeneous(bits, n, s, p, total):
                        entry[1].append(bits)
                populations[(scheme, n)] = buckets
        checked = 0
        for pattern in patterns:
            span = len(pattern)
            for occurrences, overlap in ((1, 0), (1, span - 1), (2, 0), (2, span - 1)):
                strategy = DetectionStrategy(Seed(pattern), occurrences, overlap)
                for scheme in schemes:
                    by_score = {}
                    for n in range(1, 17):
                        for total, (all_bits, hom_bits) in populations[(scheme, n)].items():
                            by_score.setdefault(total, []).append((n, all_bits, hom_bits))
                    for total, rows in by_score.items():
                        lengths = [n for n, _, _ in rows]
                        uniform = hit_probability_profile(
                            strategy, scheme, total, lengths, UNIFORM)
                        hom_lengths = [n for n, _, hom_bits in rows if hom_bits]
                        homogeneous = hit_probability_profile(
                            strategy, scheme, total, hom_lengths, HOMOGENEOUS) \
                            if hom_lengths else []
                        hom_reports = dict(zip(hom_lengths, homogeneous))
                        for (n, all_bits, hom_bits), uni_report in zip(rows, uniform):
                            scan_all = sum(
                                subset_detects(bits, n, pattern, occurrences, overlap)
                                for bits in all_bits)
                            assert (uni_report.numerator, uni_report.denominator) == \
                                (scan_all, len(all_bits)), (pattern, scheme, n, total)
                            if hom_bits:
                                scan_hom = sum(
                                    subset_detects(bits, n, pattern, occurrences, overlap)
                                    for bits in hom_bits)
                                rep = hom_reports[n]
                                assert (rep.numerator, rep.denominator) == \
                                    (scan_hom, len(hom_bits)), (pattern, scheme, n, total)
                            checked += 1
        elapsed = time.perf_counter() - started
        report_line(5, elapsed < 300,
                    f"{checked} (seed, scheme, n, score, K, overlap) cells equal the "
                    f"scan oracle exactly in {elapsed:.0f} s")
        assert elapsed < 300


def _sampler_uniformity(scheme, n, total, samples, stream):
    """Draw fixed-score samples, require each to be a homogeneous member of the
    population, and return (members, chi-square p-value, total variation)
    against the uniform law on the enumerated population."""
    members = [str(a) for a in enumerate_homogeneous(scheme, n, total)]
    drawn = [Alignment.from_string(text)
             for text in sample_fixed(scheme, n, total, samples, stream)]
    for a in drawn:
        assert is_homogeneous(a, scheme) and alignment_score(a, scheme) == total
    counts = Counter(str(a) for a in drawn)
    assert set(counts) <= set(members)
    expected = samples / len(members)
    stat = sum((counts[m] - expected) ** 2 / expected for m in members)
    p_value = scipy.stats.chi2.sf(stat, len(members) - 1)
    tv = 0.5 * sum(abs(counts[m] / samples - 1 / len(members)) for m in members)
    return members, p_value, tv


class TestCriterion6SamplerUniformity:
    def test_criterion_6_stated_parameters(self):
        """Sampler uniformity at length 12 on the most populous score, which
        must have at least 20 homogeneous members: 100k draws, chi-square
        p > 0.001 and TV < 0.02.

        The source named scheme (1,3), but no length-12 score has more than 4
        homogeneous members under (1,3) (populations {4: 0, 8: 4, 12: 1}), so
        the gate runs on scheme (1,1), whose score 6 has 40 members.
        """
        started = time.perf_counter()
        n, samples = 12, 100_000
        narrow = {total: count_homogeneous(SCHEME, n, total) for total in (4, 8, 12)}
        assert narrow == {4: 0, 8: 4, 12: 1}
        scheme = ScoringScheme(1, 1)
        populations = {total: count_homogeneous(scheme, n, total)
                       for total in range(2, n + 1, 2)}
        total = max(populations, key=populations.get)
        members, p_value, tv = _sampler_uniformity(
            scheme, n, total, samples, RandomStream(2024))
        assert (total, len(members)) == (6, 40)
        assert populations[total] == len(members) >= 20
        elapsed = time.perf_counter() - started
        report_line(6, p_value > 0.001 and tv < 0.02,
                    f"(1,1) length {n} score {total}, {len(members)} members: "
                    f"chi-square p={p_value:.3f}, TV={tv:.4f}, all {samples} samples "
                    f"valid, {elapsed:.0f} s; (1,3) length {n} populations {narrow}")
        assert p_value > 0.001
        assert tv < 0.02

    def test_criterion_6_verified_at_smallest_workable_length(self):
        started = time.perf_counter()
        n, total, samples = 17, 9, 100_000
        members, p_value, tv = _sampler_uniformity(
            SCHEME, n, total, samples, RandomStream(2024))
        assert len(members) == 24 >= 20
        elapsed = time.perf_counter() - started
        report_line("6-verified", p_value > 0.001 and tv < 0.02,
                    f"chi-square p={p_value:.3f}, TV={tv:.4f}, all {samples} samples "
                    f"valid, {elapsed:.0f} s")
        assert p_value > 0.001
        assert tv < 0.02
        assert elapsed < 30


@pytest.fixture(scope="session")
def mc_40_12():
    strategy = DetectionStrategy(Seed("1110010110111"))
    query = SensitivityQuery(strategy, SCHEME, LENGTH, 12, HOMOGENEOUS)
    started = time.perf_counter()
    result = mc_estimate(query, 100_000, RandomStream(0))
    return result, time.perf_counter() - started


class TestCriterion7MonteCarlo:
    def test_criterion_7_as_stated(self, mc_40_12):
        """The Monte-Carlo estimate lies within 4 standard errors of the
        reference homogeneous decimal for 1110010110111 at score 12."""
        result, _ = mc_40_12
        stated = next(float(hom) for pattern, total, _, hom, _ in REFERENCE_ROWS
                      if (pattern, total) == ("1110010110111", 12))
        tolerance = 4 * math.sqrt(stated * (1 - stated) / result.samples)
        estimate = result.hits / result.samples
        gap = abs(estimate - stated)
        report_line(7, gap <= tolerance,
                    f"|{estimate:.6f} - {stated}| = {gap:.2e} vs tol {tolerance:.2e}")
        assert gap <= tolerance, (
            f"Monte-Carlo estimate {estimate:.6f} is {gap:.2e} from the "
            f"reference homogeneous value {stated}, beyond 4 standard errors")

    def test_criterion_7_verified_against_exact(self, mc_40_12, enumerated):
        result, elapsed = mc_40_12
        hom_hits, hom_total, _, _ = enumerated["rows"][("1110010110111", 12)]
        exact = hom_hits / hom_total
        tolerance = 4 * math.sqrt(exact * (1 - exact) / result.samples)
        estimate = result.hits / result.samples
        gap = abs(estimate - exact)
        report_line("7-verified", gap <= tolerance and elapsed < 10,
                    f"|{estimate:.6f} - {exact:.6f}| = {gap:.2e} vs tol "
                    f"{tolerance:.2e}, {elapsed:.1f} s")
        assert gap <= tolerance
        assert elapsed < 10


@pytest.fixture(scope="session")
def curves(tmp_path_factory):
    """CSV curves for the two reference seeds at scores 16 and 32."""
    out = {}
    base = tmp_path_factory.mktemp("curves")
    started = time.perf_counter()
    for label, pattern in (("spaced", SPACED_SEED_18), ("contiguous", CONTIGUOUS_11)):
        for total in (16, 32):
            path = base / f"{label}_{total}.csv"
            code = cli_run([
                "curve", "--seed", pattern, "--score", str(total),
                "--length-range", f"{total}:64", "--format", "csv",
                "--output", str(path),
            ])
            assert code == 0
            with open(path) as handle:
                rows = list(csv.DictReader(handle))
            out[(pattern, total)] = rows
    out["elapsed"] = time.perf_counter() - started
    return out


class TestCriterion8Curves:
    def _row(self, rows, n, model):
        picked = [r for r in rows if int(r["n"]) == n and r["model"] == model]
        assert len(picked) == 1
        return picked[0]

    def test_criterion_8_structure(self, curves):
        for pattern in (SPACED_SEED_18, CONTIGUOUS_11):
            for total in (16, 32):
                rows = curves[(pattern, total)]
                pairs = [(int(r["n"]), r["model"]) for r in rows]
                assert pairs == sorted(pairs)
                assert len(pairs) == len(set(pairs))
                lengths = sorted({n for n, _ in pairs})
                assert lengths == [n for n in range(total, 65)
                                   if (total + 3 * n) % 4 == 0]
                assert {m for _, m in pairs} == {HOMOGENEOUS, UNIFORM}
        assert curves["elapsed"] < 120
        report_line("8-structure", True,
                    f"4 curve sweeps produced, one row per (n, model), "
                    f"{curves['elapsed']:.1f} s")

    def test_criterion_8_as_stated(self, curves):
        """At n=40, score 16, both seeds miss a larger share of homogeneous
        alignments than of all alignments: 1-Ph > 1-Pa, read from the curve
        CSV. The source stated the reverse, the same model swap as in
        REFERENCE_ROWS; the enumerated miss rates are 0.189 vs 0.059 for the
        spaced seed and 0.532 vs 0.235 for the contiguous one."""
        failures = []
        for pattern in (SPACED_SEED_18, CONTIGUOUS_11):
            rows = curves[(pattern, 16)]
            p_hom = float(self._row(rows, 40, HOMOGENEOUS)["probability"])
            p_uni = float(self._row(rows, 40, UNIFORM)["probability"])
            if not (1 - p_hom) > (1 - p_uni):
                failures.append(f"  {pattern}: 1-Ph = {1 - p_hom:.6f} vs "
                                f"1-Pa = {1 - p_uni:.6f}")
        report_line(8, not failures,
                    "homogeneous miss rate exceeds the all-alignment one at (40, 16)")
        assert not failures, (
            "expected (1-Ph) > (1-Pa) at (40, 16):\n" + "\n".join(failures))

    def test_criterion_8_verified_relation(self, curves, enumerated):
        for pattern in (SPACED_SEED_18, CONTIGUOUS_11):
            rows = curves[(pattern, 16)]
            hom_row = self._row(rows, 40, HOMOGENEOUS)
            uni_row = self._row(rows, 40, UNIFORM)
            hom_hits, hom_total, all_hits, all_total = enumerated["rows"][(pattern, 16)]
            assert (int(hom_row["numerator"]), int(hom_row["denominator"])) == \
                (hom_hits, hom_total)
            assert (int(uni_row["numerator"]), int(uni_row["denominator"])) == \
                (all_hits, all_total)
            miss_hom = 1 - hom_hits / hom_total
            miss_uni = 1 - all_hits / all_total
            assert miss_hom > miss_uni
            print(f"  {pattern}: miss rates hom {miss_hom:.6f} vs uniform "
                  f"{miss_uni:.6f}, ratio {miss_hom / miss_uni:.2f}x")
        report_line("8-verified", True,
                    "curve rows equal the enumerated fractions exactly; verified "
                    "miss-rate orientation logged")


class TestCriterion9Performance:
    def test_criterion_9_performance_envelope(self):
        strategy = DetectionStrategy(Seed(SPACED_SEED_18))
        query = SensitivityQuery(strategy, SCHEME, 64, 16, HOMOGENEOUS)
        started = time.perf_counter()
        report = hit_probability(query)
        elapsed = time.perf_counter() - started
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report_line(9, elapsed < 5 and peak_kb < 1024 ** 2,
                    f"span-18 weight-11 query at n=64: {elapsed:.2f} s, "
                    f"peak RSS {peak_kb / 1024:.0f} MiB, p = {report.decimal()}")
        assert elapsed < 5
        assert peak_kb < 1024 ** 2  # ru_maxrss is in KiB on Linux
