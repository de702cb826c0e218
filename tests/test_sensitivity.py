import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given, settings, strategies as st

import seedsense.sensitivity as sensitivity_mod
from seedsense.alignments import DetectionStrategy, ScoringScheme, Seed
from seedsense.counting import (HOMOGENEOUS, UNIFORM, InfeasibleScore, count_homogeneous,
                                profile_counts)
from seedsense.sensitivity import (
    SensitivityQuery,
    SensitivityReport,
    _ACCEPT,
    _START,
    _hit_automaton,
    _scanner,
    decimal_ratio,
    hit_probability,
    hit_probability_profile,
)

from oracles import hit_fractions, moore_class_count, subset_detects

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)


def _profile(scanner, scheme, score, lengths, model):
    # (hits, population) per length, swept over the given scanner's (step0, step1)
    step0, step1 = scanner
    return profile_counts(step0, step1, _START, _ACCEPT, scheme, score, lengths, model)


def strategy(pattern, occurrences=1, overlap=0):
    return DetectionStrategy(Seed(pattern), occurrences, overlap)


def query(pattern, scheme, n, total, model=HOMOGENEOUS, occurrences=1, overlap=0):
    return SensitivityQuery(strategy(pattern, occurrences, overlap), scheme, n, total, model)


def probability(report):
    return Fraction(report.numerator, report.denominator)


def feasible_scores(scheme, n):
    s, p = scheme.match_score, scheme.mismatch_penalty
    return [m * s - (n - m) * p for m in range(n + 1) if m * s - (n - m) * p >= 1]


def random_seed_pattern(rng, max_span):
    span = rng.randint(1, max_span)
    if span == 1:
        return "1"
    return "1" + "".join(rng.choice("01") for _ in range(span - 2)) + "1"


class TestDecimalRatio:
    @pytest.mark.parametrize("num,den,digits,expected", [
        (1, 3, 6, "0.333333"),
        (2, 3, 6, "0.666667"),
        (1, 1, 6, "1.000000"),
        (0, 7, 4, "0.0000"),
        (1, 8, 2, "0.12"),   # ties round to even
        (3, 8, 2, "0.38"),
        (1, 2, 0, "0"),
        (3, 2, 0, "2"),
        (551414, 611072, 6, "0.902372"),
    ])
    def test_rounding(self, num, den, digits, expected):
        assert decimal_ratio(num, den, digits) == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            decimal_ratio(1, 0)
        with pytest.raises(ValueError):
            decimal_ratio(-1, 2)
        with pytest.raises(ValueError):
            decimal_ratio(1, 2, -1)


class TestReports:
    def test_invariants(self):
        report = hit_probability(query("101", S11, 9, 3))
        assert 0 <= report.numerator <= report.denominator
        assert report.denominator > 0
        assert report.decimal(3) == decimal_ratio(report.numerator, report.denominator, 3)

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            SensitivityReport(5, 3)

    def test_query_validation(self):
        with pytest.raises(ValueError):
            query("1", S11, 0, 1)
        with pytest.raises(ValueError):
            query("1", S11, 3, 0, HOMOGENEOUS)
        with pytest.raises(ValueError):
            query("1", S11, 3, 1, "markov")


class TestTrivialValues:
    def test_weight_one_seed_is_certain_on_homogeneous(self):
        for scheme, n, total in ((S11, 7, 3), (S13, 9, 5), (S13, 12, 8)):
            report = hit_probability(query("1", scheme, n, total))
            assert report.numerator == report.denominator

    def test_unique_member_contains_pair(self):
        assert probability(hit_probability(query("11", S11, 5, 3))) == 1
        assert probability(hit_probability(query("111", S11, 5, 3))) == 0

    def test_uniform_model_allows_nonpositive_scores(self):
        report = hit_probability(query("1", S11, 2, 0, UNIFORM))
        assert (report.numerator, report.denominator) == (2, 2)
        report = hit_probability(query("11", S11, 3, -1, UNIFORM))
        assert (report.numerator, report.denominator) == (0, 3)

    def test_span_longer_than_alignment_is_zero(self):
        report = hit_probability(query("1" * 7, S11, 5, 3))
        assert report.numerator == 0
        report = hit_probability(query("1" * 7, S11, 5, 3, UNIFORM))
        assert report.numerator == 0

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleScore):
            hit_probability(query("11", S13, 5, 2))
        with pytest.raises(InfeasibleScore):
            hit_probability(query("11", S13, 5, 2, UNIFORM))
        with pytest.raises(InfeasibleScore):
            hit_probability(query("11", S13, 12, 4))  # empty homogeneous population


class TestOracleEquivalence:
    def test_single_seed_both_models(self):
        rng = random.Random(23)
        for _ in range(6):
            pattern = random_seed_pattern(rng, 6)
            for scheme in (S11, S13):
                for n in range(1, 13):
                    for total in feasible_scores(scheme, n):
                        (hom_hits, hom), (all_hits, alln) = hit_fractions(
                            n, scheme.match_score, scheme.mismatch_penalty, total, pattern)
                        if hom:
                            report = hit_probability(query(pattern, scheme, n, total))
                            assert (report.numerator, report.denominator) == (hom_hits, hom)
                        if alln:
                            report = hit_probability(query(pattern, scheme, n, total, UNIFORM))
                            assert (report.numerator, report.denominator) == (all_hits, alln)

    def test_multi_occurrence_random_cases(self):
        rng = random.Random(29)
        for _ in range(40):
            pattern = random_seed_pattern(rng, 5)
            span = len(pattern)
            occurrences = rng.randint(2, 3)
            overlap = rng.choice([0, span // 2, span - 1])
            scheme = rng.choice((S11, S13))
            n = rng.randint(2, 11)
            feasible = feasible_scores(scheme, n)
            if not feasible:
                continue
            total = rng.choice(feasible)
            (hom_hits, hom), (all_hits, alln) = hit_fractions(
                n, scheme.match_score, scheme.mismatch_penalty, total, pattern,
                occurrences, overlap)
            if hom:
                report = hit_probability(
                    query(pattern, scheme, n, total, HOMOGENEOUS, occurrences, overlap))
                assert (report.numerator, report.denominator) == (hom_hits, hom)
            if alln:
                report = hit_probability(
                    query(pattern, scheme, n, total, UNIFORM, occurrences, overlap))
                assert (report.numerator, report.denominator) == (all_hits, alln)

    def test_general_schemes_random_cases(self):
        # match scores above 1 change the reachable score lattice
        rng = random.Random(777)
        checked = 0
        while checked < 60:
            scheme = ScoringScheme(rng.randint(1, 5), rng.randint(1, 5))
            n = rng.randint(1, 10)
            pattern = random_seed_pattern(rng, min(5, n + 1))
            occurrences = rng.randint(1, 2)
            overlap = rng.randint(0, len(pattern) - 1)
            feasible = feasible_scores(scheme, n)
            if not feasible:
                continue
            total = rng.choice(feasible)
            (hom_hits, hom), (all_hits, alln) = hit_fractions(
                n, scheme.match_score, scheme.mismatch_penalty, total, pattern,
                occurrences, overlap)
            if hom:
                report = hit_probability(
                    query(pattern, scheme, n, total, HOMOGENEOUS, occurrences, overlap))
                assert (report.numerator, report.denominator) == (hom_hits, hom)
            if alln:
                report = hit_probability(
                    query(pattern, scheme, n, total, UNIFORM, occurrences, overlap))
                assert (report.numerator, report.denominator) == (all_hits, alln)
            checked += 1
        # multi-length profiles: each shorter length is read mid-sweep, before
        # that step's score window (set by the longest length) is applied; the
        # sweep itself also reads an empty length, where the score's mismatch
        # count is fractional, above the length or below the lowest kept lane
        profiles = {HOMOGENEOUS: 0, UNIFORM: 0}
        while min(profiles.values()) < 20:
            scheme = ScoringScheme(rng.randint(1, 5), rng.randint(1, 5))
            s, p = scheme.match_score, scheme.mismatch_penalty
            pattern = random_seed_pattern(rng, 5)
            occurrences = rng.randint(1, 3)
            overlap = rng.randint(0, len(pattern) - 1)
            length = rng.randint(1, 10)
            matches = rng.randint(0, length)
            total = matches * s - (length - matches) * p
            oracle = {n: hit_fractions(n, s, p, total, pattern, occurrences, overlap)
                      for n in range(1, 11)}
            for model, side in ((HOMOGENEOUS, 0), (UNIFORM, 1)):
                populated = [n for n in oracle if oracle[n][side][1]]
                if len(populated) < 2:
                    continue
                lengths = sorted(rng.sample(populated, min(len(populated), rng.randint(2, 4))))
                reports = hit_probability_profile(
                    strategy(pattern, occurrences, overlap), scheme, total, lengths, model)
                assert [(r.numerator, r.denominator) for r in reports] == \
                    [oracle[n][side] for n in lengths]
                # s + p >= 2, so of two consecutive lengths at most one reaches the score
                empty = [n for n in oracle if not oracle[n][side][1]]
                swept = sorted(set(lengths) | set(rng.sample(empty, min(len(empty), 2))))
                auto = _hit_automaton(strategy(pattern, occurrences, overlap))
                assert _profile(auto, scheme, total, swept, model) == \
                    {n: oracle[n][side] for n in swept}
                profiles[model] += 1


class TestMultiOccurrence:
    def test_one_occurrence_matches_plain_seed(self):
        for overlap in (0, 2):
            a = hit_probability(query("1011", S11, 12, 4, HOMOGENEOUS, 1, overlap))
            b = hit_probability(query("1011", S11, 12, 4))
            assert (a.numerator, a.denominator) == (b.numerator, b.denominator)

    def test_monotone_in_occurrences(self):
        last = Fraction(1)
        for occurrences in (1, 2, 3):
            prob = probability(hit_probability(
                query("101", S11, 14, 4, HOMOGENEOUS, occurrences, 0)))
            assert prob <= last
            last = prob

    def test_monotone_in_overlap(self):
        last = Fraction(0)
        for overlap in (0, 1, 2):
            prob = probability(hit_probability(
                query("101", S11, 12, 4, HOMOGENEOUS, 2, overlap)))
            assert prob >= last
            last = prob


class TestSeedWeakening:
    def test_weakening_never_hurts(self):
        rng = random.Random(31)
        for _ in range(10):
            pattern = random_seed_pattern(rng, 6)
            if pattern.count("1") < 2:
                continue
            for scheme, n in ((S11, 16), (S13, 16)):
                for total in feasible_scores(scheme, n)[:3]:
                    for model in (HOMOGENEOUS, UNIFORM):
                        try:
                            base = probability(hit_probability(
                                query(pattern, scheme, n, total, model)))
                        except InfeasibleScore:
                            continue
                        for i, ch in enumerate(pattern):
                            if ch != "1":
                                continue
                            weak = pattern[:i] + "0" + pattern[i + 1:]
                            weak = weak.strip("0")
                            if not weak:
                                continue
                            prob = probability(hit_probability(
                                query(weak, scheme, n, total, model)))
                            assert prob >= base


class TestProfile:
    def test_profile_matches_single_queries(self):
        lengths = [5, 9, 13]
        profile = hit_probability_profile(strategy("101"), S11, 3, lengths)
        for n, report in zip(lengths, profile):
            single = hit_probability(query("101", S11, n, 3))
            assert (report.numerator, report.denominator) == \
                (single.numerator, single.denominator)

    def test_uniform_profile_matches_single_queries(self):
        # the sweep prunes states by reachability of the score at the horizon;
        # shorter lengths inside the sweep must be unaffected
        lengths = [4, 8, 12, 16]
        profile = hit_probability_profile(strategy("1011"), S13, 4, lengths, UNIFORM)
        for n, report in zip(lengths, profile):
            single = hit_probability(query("1011", S13, n, 4, UNIFORM))
            assert (report.numerator, report.denominator) == \
                (single.numerator, single.denominator)

    def test_lane_capacity_all_model(self):
        # comb(256, 128) takes 252 bits: a narrower lane carries into its neighbour
        lengths = [254, 256]
        reports = hit_probability_profile(strategy("11"), S11, 0, lengths, UNIFORM)
        assert [r.denominator for r in reports] == [comb(n, n // 2) for n in lengths]

    def test_lane_capacity_homogeneous(self):
        lengths = [160, 240]
        reports = hit_probability_profile(strategy("1011"), S13, 40, lengths)
        assert [r.denominator for r in reports] == \
            [count_homogeneous(S13, n, 40) for n in lengths]

    def test_rejects_bad_arguments(self, monkeypatch):
        with pytest.raises(ValueError):
            hit_probability_profile(strategy("1"), S11, 2, [])
        with pytest.raises(ValueError):
            hit_probability_profile(strategy("1"), S11, 2, [0])
        with pytest.raises(ValueError):
            hit_probability_profile(strategy("1"), S11, 2, [4], "markov")
        # every length, the score and the model are checked before any scanner is built
        built = TestHitAutomaton.builds(monkeypatch)
        with pytest.raises(ValueError, match="length must be >= 1"):
            hit_probability_profile(strategy("101"), S11, 3, [5, 0])
        with pytest.raises(ValueError, match="homogeneous alignments require score >= 1"):
            hit_probability_profile(strategy("101"), S11, 0, [5])
        with pytest.raises(ValueError, match="model must be one of"):
            hit_probability_profile(strategy("101"), S11, 3, [5], "markov")
        assert built == []


class TestHitAutomaton:
    # a single occurrence gives the Moore-minimal automaton; beside each multi-occurrence
    # pin, the state count of the minimal one
    @pytest.mark.parametrize("pattern, occurrences, overlap, size", [
        ("1110010110111", 1, 0, 59),
        ("111001001010111", 1, 0, 142),
        ("110100110010101111", 1, 0, 243),
        ("110100110010101111", 2, 17, 525),  # minimal 524
        ("110100110010101111", 3, 5, 807),  # minimal 727
    ])
    def test_state_counts(self, pattern, occurrences, overlap, size):
        assert len(_hit_automaton(strategy(pattern, occurrences, overlap))[0]) == size

    # the scanner swept is the mirror's (the reversed seed, same occurrences and
    # overlap) when the seed's required positions sit past its center
    @pytest.mark.parametrize("pattern, occurrences, overlap, size", [
        ("110001010111101", 1, 0, 70),       # the mirror's; its own has 122
        ("1010110111010001", 1, 0, 84),      # its own; the mirror has 116
        ("110100110010101111", 2, 17, 372),  # the mirror's; its own has 525
    ])
    def test_scanner_size(self, pattern, occurrences, overlap, size):
        assert len(_scanner(strategy(pattern, occurrences, overlap))[0]) == size

    # on these seeds the rule picks the smaller of the two scanners; beside each, the
    # state count it had before dominated windows were dropped, which must fall
    @pytest.mark.parametrize("pattern, occurrences, overlap, size", [
        ("110001010111101", 1, 0, 90),
        ("1010110111010001", 1, 0, 95),
        ("110100110010101111", 2, 17, 397),
    ])
    def test_scanner_is_the_smaller(self, pattern, occurrences, overlap, size):
        own, _ = _hit_automaton(strategy(pattern, occurrences, overlap))
        mirror, _ = _hit_automaton(strategy(pattern[::-1], occurrences, overlap))
        assert len(_scanner(strategy(pattern, occurrences, overlap))[0]) == \
            min(len(own), len(mirror)) < size

    @staticmethod
    def builds(monkeypatch):
        """Record the seed of every scanner build ``_scanner`` starts."""
        built = []

        def recorded(strategy):
            built.append(strategy.seed.pattern)
            return _hit_automaton(strategy)

        monkeypatch.setattr(sensitivity_mod, "_hit_automaton", recorded)
        return built

    def test_palindrome_builds_one_scanner(self, monkeypatch):
        # its required positions sit on its center, a tie, so it gets its own
        built = self.builds(monkeypatch)
        _scanner(strategy("1101011", 2, 3))
        assert built == ["1101011"]

    @pytest.mark.parametrize("pattern, occurrences, overlap, oriented", [
        ("110001010111101", 1, 0, "101111010100011"),  # the mirror's scanner
        ("1010110111010001", 1, 0, "1010110111010001"),  # its own
        ("110100110010101111", 3, 5, "111101010011001011"),
    ])
    def test_scanner_builds_one_automaton(self, monkeypatch, pattern, occurrences, overlap,
                                          oriented):
        built = self.builds(monkeypatch)
        _scanner(strategy(pattern, occurrences, overlap))
        assert built == [oriented]

    def test_accepts_exactly_the_detected_prefixes(self):
        rng = random.Random(77)
        for _ in range(12):
            pattern = random_seed_pattern(rng, 8)
            occurrences = rng.randint(1, 3)
            overlap = rng.randint(0, len(pattern) - 1)
            step0, step1 = _hit_automaton(strategy(pattern, occurrences, overlap))
            # depth-first over every bit string of length <= 12, one letter at a time
            stack = [(0, 0, _START)]
            while stack:
                bits, n, state = stack.pop()
                expected = subset_detects(bits, n, pattern, occurrences, overlap)
                assert (state == _ACCEPT) == expected, (pattern, occurrences, overlap, n, bits)
                if n < 12:
                    stack.append((bits, n + 1, step0[state]))
                    stack.append((bits | 1 << n, n + 1, step1[state]))
        # spans 9-18 reach fire masks wider than the exhaustive part covers; every
        # prefix of random 80-letter strings
        for _ in range(100):
            span = rng.randint(9, 18)
            pattern = "1" + "".join(rng.choice("01") for _ in range(span - 2)) + "1"
            occurrences = rng.randint(1, 3)
            overlap = rng.randint(0, span - 1)
            step0, step1 = _hit_automaton(strategy(pattern, occurrences, overlap))
            # biased towards matches, so that most strings hold several occurrences
            identity = rng.uniform(0.5, 0.9)
            for _ in range(20):
                bits = sum(1 << i for i in range(80) if rng.random() < identity)
                state = _START
                for n in range(81):
                    expected = subset_detects(bits, n, pattern, occurrences, overlap)
                    assert (state == _ACCEPT) == expected, (pattern, occurrences, overlap,
                                                            n, bits)
                    if n < 80:
                        state = (step1 if bits >> n & 1 else step0)[state]


class TestScannerProperties:
    """Seeds of span <= 14: ``_scanner`` builds the mirror's scanner exactly when
    the seed's required positions sit past its center, and a single-occurrence
    scanner, of a seed or of its mirror, has no two equivalent states."""

    @settings(deadline=None, derandomize=True)
    @given(interior=st.lists(st.sampled_from("01"), max_size=12), single=st.booleans(),
           occurrences=st.integers(1, 3), data=st.data())
    def test_mirror_exactly_when_the_seed_leans_right(self, interior, single, occurrences,
                                                      data):
        pattern = "1" if single and not interior else "1" + "".join(interior) + "1"
        overlap = data.draw(st.integers(0, len(pattern) - 1), label="overlap")
        positions = [i for i, ch in enumerate(pattern) if ch == "1"]
        leans_right = 2 * sum(positions) > len(positions) * (len(pattern) - 1)
        expected = _hit_automaton(strategy(pattern[::-1] if leans_right else pattern,
                                           occurrences, overlap))
        assert _scanner(strategy(pattern, occurrences, overlap)) == expected

    @settings(deadline=None, derandomize=True)
    @given(interior=st.lists(st.sampled_from("01"), max_size=12), single=st.booleans())
    def test_single_occurrence_scanner_is_minimal(self, interior, single):
        pattern = "1" if single and not interior else "1" + "".join(interior) + "1"
        for oriented in (pattern, pattern[::-1]):
            step0, step1 = _hit_automaton(strategy(oriented))
            assert moore_class_count(step0, step1, _ACCEPT) == len(step0), oriented


class TestProfileProperties:
    """Random schemes (s, p) in [1, 5]^2, seeds of span <= 8, up to 3
    occurrences with any overlap, and lengths up to 14: each length's
    (hits, population) from one sweep equals full enumeration."""

    @settings(deadline=None, derandomize=True)
    @given(s=st.integers(1, 5), p=st.integers(1, 5),
           interior=st.lists(st.sampled_from("01"), max_size=6), single=st.booleans(),
           occurrences=st.integers(1, 3), data=st.data())
    def test_profile_equals_enumeration(self, s, p, interior, single, occurrences, data):
        pattern = "1" if single and not interior else "1" + "".join(interior) + "1"
        overlap = data.draw(st.integers(0, len(pattern) - 1), label="overlap")
        lengths = data.draw(st.lists(st.integers(1, 14), min_size=1, max_size=4, unique=True),
                            label="lengths")
        horizon = max(lengths)
        q = data.draw(st.integers(0, horizon), label="mismatches at the longest length")
        total = (horizon - q) * s - q * p
        auto = _hit_automaton(strategy(pattern, occurrences, overlap))
        oracle = {n: hit_fractions(n, s, p, total, pattern, occurrences, overlap)
                  for n in lengths}
        # a homogeneous score is positive (SensitivityQuery rejects any other)
        for model, side in ((HOMOGENEOUS, 0), (UNIFORM, 1))[total < 1:]:
            assert _profile(auto, ScoringScheme(s, p), total, lengths, model) == \
                {n: oracle[n][side] for n in lengths}

    @settings(deadline=None, derandomize=True)
    @given(s=st.integers(1, 4), p=st.integers(1, 4),
           interior=st.lists(st.sampled_from("01"), min_size=1, max_size=10),
           occurrences=st.integers(1, 3), data=st.data())
    def test_mirror_scanner_gives_the_same_profile(self, s, p, interior, occurrences, data):
        # both scanners swept directly: hit_probability_profile sweeps one scanner for a
        # strategy and its mirror alike, so comparing through it would prove nothing
        pattern = "1" + "".join(interior) + "1"
        assume(pattern != pattern[::-1])  # a palindrome is its own mirror
        overlap = data.draw(st.integers(0, len(pattern) - 1), label="overlap")
        lengths = data.draw(st.lists(st.integers(1, 96), min_size=1, max_size=4, unique=True),
                            label="lengths")
        horizon = max(lengths)
        q = data.draw(st.integers(0, horizon), label="mismatches at the longest length")
        total = (horizon - q) * s - q * p
        scheme = ScoringScheme(s, p)
        own = _hit_automaton(strategy(pattern, occurrences, overlap))
        mirror = _hit_automaton(strategy(pattern[::-1], occurrences, overlap))
        # a homogeneous score is positive (SensitivityQuery rejects any other)
        for model in (HOMOGENEOUS, UNIFORM)[total < 1:]:
            assert _profile(own, scheme, total, lengths, model) == \
                _profile(mirror, scheme, total, lengths, model), model
