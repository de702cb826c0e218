import random

import pytest
from hypothesis import given, strategies as st

from seedsense.alignments import (
    Alignment,
    DetectionStrategy,
    ScoringScheme,
    Seed,
    count_detected,
    enumerate_homogeneous,
    is_homogeneous,
    is_homogeneous_segments,
    score,
    seed_detects,
    strategy_detects,
)

from oracles import match_ends, seed_mask, subset_detects

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)
S23 = ScoringScheme(2, 3)


def A(text):
    return Alignment.from_string(text)


class TestScoringScheme:
    def test_defaults(self):
        scheme = ScoringScheme()
        assert (scheme.match_score, scheme.mismatch_penalty) == (1, 3)

    @pytest.mark.parametrize("bad", [(0, 3), (1, 0), (-1, 1), (1, -2)])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ScoringScheme(*bad)

    def test_letter_score(self):
        assert S13.letter_score(1) == 1
        assert S13.letter_score(0) == -3


class TestAlignment:
    def test_string_roundtrip(self):
        for text in ("1", "0", "10110", "1" * 40):
            assert str(A(text)) == text

    def test_string_is_letters_in_order(self):
        # str() renders b_1 first; pinned against the per-letter definition,
        # including leading and trailing mismatches
        rng = random.Random(5)
        for n in range(1, 71):
            for bits in (0, (1 << n) - 1, 1, 1 << (n - 1), *(rng.getrandbits(n) for _ in range(5))):
                a = Alignment(n, bits)
                assert str(a) == "".join(str((bits >> i) & 1) for i in range(n))
                assert Alignment.from_string(str(a)) == a

    @given(text=st.text("01", min_size=1, max_size=130))
    def test_from_string_is_the_per_letter_bits(self, text):
        # letter b_i, the text's character i - 1, is bit i - 1
        a = Alignment.from_string(text)
        assert (a.length, a.bits) == (len(text), sum(1 << i for i, ch in enumerate(text)
                                                     if ch == "1"))

    def test_rejects_bad_strings(self):
        for text in ("", "12", "1a0"):
            with pytest.raises(ValueError):
                Alignment.from_string(text)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Alignment(0, 0)
        with pytest.raises(ValueError):
            Alignment(2, 4)


class TestScore:
    @pytest.mark.parametrize("text,scheme,expected", [
        ("11111", S13, 5),
        ("10110", S13, 3 - 2 * 3),
        ("110100110010101111", S13, 11 - 7 * 3),
        ("11011", S11, 3),
    ])
    def test_examples(self, text, scheme, expected):
        assert score(A(text), scheme) == expected


class TestHomogeneity:
    def test_examples(self):
        assert is_homogeneous(A("11011"), S11)
        assert not is_homogeneous(A("110"), S11)
        assert not is_homogeneous(A("110"), S13)
        assert not is_homogeneous(A("0"), S11)
        assert is_homogeneous(A("1"), S23)

    def test_criteria_agree_exhaustively(self):
        for scheme in (S11, S13, S23):
            for n in range(1, 13):
                for bits in range(1 << n):
                    a = Alignment(n, bits)
                    assert is_homogeneous(a, scheme) == is_homogeneous_segments(a, scheme)


class TestEnumerate:
    def test_examples(self):
        assert [str(a) for a in enumerate_homogeneous(S11, 5, 3)] == ["11011"]
        assert [str(a) for a in enumerate_homogeneous(S13, 2, 2)] == ["11"]
        assert [str(a) for a in enumerate_homogeneous(S23, 1, 2)] == ["1"]

    def test_lexicographic_order(self):
        texts = [str(a) for a in enumerate_homogeneous(S11, 8)]
        assert texts == sorted(texts)

    def test_rejects_beyond_limit(self):
        with pytest.raises(ValueError):
            enumerate_homogeneous(S11, 21)

    def test_rejects_zero_length(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            enumerate_homogeneous(S11, 0)

    def test_endpoints_are_matches(self):
        for scheme in (S11, S13):
            for n in range(1, 11):
                for a in enumerate_homogeneous(scheme, n):
                    text = str(a)
                    assert text[0] == "1" and text[-1] == "1"


class TestSeed:
    def test_properties(self):
        seed = Seed("1101")
        assert (seed.span, seed.weight) == (4, 3)
        assert seed.required_mask == 0b1011

    @given(interior=st.lists(st.sampled_from("01"), max_size=40), single=st.booleans())
    def test_required_mask_is_the_per_position_mask(self, interior, single):
        pattern = "1" if single and not interior else "1" + "".join(interior) + "1"
        assert Seed(pattern).required_mask == seed_mask(pattern)

    @pytest.mark.parametrize("bad", ["", "011", "110", "0", "102"])
    def test_rejects_noncanonical(self, bad):
        with pytest.raises(ValueError):
            Seed(bad)


class TestSeedDetects:
    def test_examples(self):
        assert seed_detects(Seed("101"), A("11011"))
        assert not seed_detects(Seed("11"), A("10101"))

    def test_weight_one_seed_detects_all_homogeneous(self):
        for n in range(1, 9):
            for a in enumerate_homogeneous(S13, n):
                assert seed_detects(Seed("1"), a)

    def test_occurrence_ends(self):
        # the reference that subset_detects builds on
        assert match_ends(A("11011").bits, 5, "11") == [2, 5]
        assert match_ends(A("1110111").bits, 7, "111") == [3, 7]
        assert match_ends(A("10101").bits, 5, "11") == []


class TestStrategyDetects:
    def test_validation(self):
        with pytest.raises(ValueError):
            DetectionStrategy(Seed("101"), 0, 0)
        with pytest.raises(ValueError):
            DetectionStrategy(Seed("101"), 1, 3)

    def test_single_occurrence_equals_seed_detects(self):
        rng = random.Random(12)
        for _ in range(100):
            span = rng.randint(1, 6)
            pattern = "1" + "".join(rng.choice("01") for _ in range(span - 2)) + "1" \
                if span > 1 else "1"
            seed = Seed(pattern)
            n = rng.randint(1, 14)
            a = Alignment(n, rng.getrandbits(n))
            strategy = DetectionStrategy(seed, 1, rng.randint(0, seed.span - 1))
            assert strategy_detects(strategy, a) == seed_detects(seed, a)

    def test_two_nonoverlapping_weight_one(self):
        strategy = DetectionStrategy(Seed("1"), 2, 0)
        assert strategy_detects(strategy, A("11011"))
        assert not strategy_detects(strategy, A("10000"))

    def test_two_nonoverlapping_contiguous(self):
        # occurrences of 111 end at 3 and 7; gap 4 >= span 3, so this is a hit
        strategy = DetectionStrategy(Seed("111"), 2, 0)
        assert strategy_detects(strategy, A("1110111"))
        assert not strategy_detects(strategy, A("111011"))

    def test_overlap_bound(self):
        # ends of 11-windows in 111 are {2, 3}: gap 1 needs max_overlap >= 1
        assert not strategy_detects(DetectionStrategy(Seed("11"), 2, 0), A("111"))
        assert strategy_detects(DetectionStrategy(Seed("11"), 2, 1), A("111"))

    @given(interior=st.lists(st.sampled_from("01"), max_size=10), single=st.booleans(),
           occurrences=st.integers(1, 4), data=st.data())
    def test_greedy_matches_subset_oracle(self, interior, single, occurrences, data):
        # seeds of span <= 12 with any overlap, lengths up to 48 below, at and above the
        # span; seed windows planted at drawn starts give occurrences at every gap
        pattern = "1" if single and not interior else "1" + "".join(interior) + "1"
        span = len(pattern)
        overlap = data.draw(st.integers(0, span - 1), label="overlap")
        n = data.draw(st.one_of(st.integers(1, span), st.integers(1, 48)), label="length")
        bits = data.draw(st.integers(0, (1 << n) - 1), label="letters")
        for start in data.draw(st.lists(st.integers(0, max(n - span, 0)), max_size=6),
                               label="planted window starts"):
            bits |= Seed(pattern).required_mask << start
        bits &= (1 << n) - 1
        strategy = DetectionStrategy(Seed(pattern), occurrences, overlap)
        expected = subset_detects(bits, n, pattern, occurrences, overlap)
        assert strategy_detects(strategy, Alignment(n, bits)) == expected


class TestCountDetected:
    @pytest.mark.parametrize("n", [7, 8, 9, 15, 16, 17, 63, 64, 65])
    def test_byte_lane_boundaries(self, n):
        # a lane is n // 8 + 1 bytes, so when 8 divides n its spare top bit opens a byte
        # of its own. Every batch holds, among random draws, the all-match alignment,
        # with a window at every start of its lane, and one whose only window ends on
        # the lane's last letter
        rng = random.Random(n)
        for span in sorted({1, 2, 3, n // 2, n - 1, n}):
            pattern = "1" if span == 1 else \
                "1" + "".join(rng.choice("01") for _ in range(span - 2)) + "1"
            for occurrences in (1, 2, 3):
                for overlap in sorted({0, span - 1}):
                    strategy = DetectionStrategy(Seed(pattern), occurrences, overlap)
                    draws = [rng.getrandbits(n) | rng.getrandbits(n)
                             for _ in range(rng.randint(0, 4))]
                    for bits in ((1 << n) - 1, Seed(pattern).required_mask << n - span):
                        draws.insert(rng.randint(0, len(draws)), bits)
                    expected = sum(subset_detects(bits, n, pattern, occurrences, overlap)
                                   for bits in draws)
                    assert count_detected(strategy, n, draws) == expected, \
                        (pattern, occurrences, overlap, draws)
