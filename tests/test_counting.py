import math

import pytest
from hypothesis import given, settings, strategies as st

from seedsense.alignments import ScoringScheme, enumerate_homogeneous
from seedsense.counting import (
    MODELS,
    CountTableD,
    count_homogeneous,
    count_unconstrained,
    lane_sweep,
    mismatch_count,
    positive_scores,
)

from oracles import fixed_score_population, inline_lane_sweep, walk_homogeneous

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)
S23 = ScoringScheme(2, 3)
SCHEMES = (S11, S13, S23)


def feasible_scores(scheme, n):
    s, p = scheme.match_score, scheme.mismatch_penalty
    return [m * s - (n - m) * p for m in range(n + 1) if m * s - (n - m) * p >= 1]


class TestComposition:
    def test_examples(self):
        assert mismatch_count(S13, 40, 12) == 7
        assert mismatch_count(S13, 5, 2) is None
        assert mismatch_count(S23, 6, 12) == 0

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            mismatch_count(S13, 0, 1)


class TestCountTableD:
    def test_low_culmination_regression(self):
        # (1,3) target 2: the all-match pair "11" is the only alignment of length 2
        assert CountTableD(S13, 2, 2).count(2) == 1

    def test_unique_small_cases(self):
        assert CountTableD(S11, 3, 5).count(5) == 1  # only 11011
        for scheme in SCHEMES:
            n = 6
            assert CountTableD(scheme, n * scheme.match_score, n).count(n) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            CountTableD(S13, 0, 5)
        with pytest.raises(ValueError):
            CountTableD(S13, 3, 0)


class TestCountHomogeneous:
    def test_examples(self):
        assert count_homogeneous(S11, 5, 3) == 1
        assert count_homogeneous(S11, 5) == 2  # 11111 and 11011
        assert count_homogeneous(S13, 3) == 1  # 111 only
        assert count_homogeneous(S13, 5, 2) == 0  # infeasible is a value, not an error

    def test_matches_enumeration(self):
        for scheme in SCHEMES:
            for n in range(1, 13):
                for target in feasible_scores(scheme, n):
                    assert count_homogeneous(scheme, n, target) == \
                        len(enumerate_homogeneous(scheme, n, target))

    def test_matches_free_enumeration(self):
        for scheme in SCHEMES:
            for n in range(1, 13):
                assert count_homogeneous(scheme, n) == len(enumerate_homogeneous(scheme, n))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="length must be >= 1"):
            positive_scores(S13, 0)
        for score in (None, 2):
            with pytest.raises(ValueError, match="length must be >= 1"):
                count_homogeneous(S13, 0, score)

    def test_score_partition(self):
        for scheme in SCHEMES:
            for n in range(1, 13):
                parts = sum(count_homogeneous(scheme, n, target)
                            for target in feasible_scores(scheme, n))
                assert parts == count_homogeneous(scheme, n)


class TestCountUnconstrained:
    def test_examples(self):
        assert count_unconstrained(S13, 40, 12) == math.comb(40, 7) == 18_643_560
        assert count_unconstrained(S13, 6, 6) == 1
        assert count_unconstrained(S13, 5, 2) == 0

    def test_matches_enumeration(self):
        for scheme in SCHEMES:
            n = 10
            for target in feasible_scores(scheme, n):
                s, p = scheme.match_score, scheme.mismatch_penalty
                expected = sum(
                    1 for bits in range(1 << n)
                    if bits.bit_count() * s - (n - bits.bit_count()) * p == target
                )
                assert count_unconstrained(scheme, n, target) == expected


schemes = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda sp: ScoringScheme(*sp))
lengths = st.integers(1, 14)
# the example count comes from the hypothesis profile (see conftest.py)
properties = settings(deadline=None, derandomize=True)


class TestCountProperties:
    """Random schemes (s, p) in [1, 5]^2 and lengths up to 14: the lane sweep's
    counts equal a literal scan of every sequence."""

    @properties
    @given(scheme=schemes, n=lengths, data=st.data())
    def test_fixed_score(self, scheme, n, data):
        s, p = scheme.match_score, scheme.mismatch_penalty
        q = data.draw(st.integers(0, n), label="mismatches")
        total = (n - q) * s - q * p
        expected = sum(walk_homogeneous(bits, n, s, p, total)
                       for bits in fixed_score_population(n, s, p, total))
        assert count_homogeneous(scheme, n, total) == expected
        if total >= 1:
            assert CountTableD(scheme, total, n).count(n) == expected

    @properties
    @given(scheme=schemes, n=lengths)
    def test_free_score(self, scheme, n):
        s, p = scheme.match_score, scheme.mismatch_penalty
        expected = sum(
            walk_homogeneous(bits, n, s, p, bits.bit_count() * s - (n - bits.bit_count()) * p)
            for bits in range(1 << n))
        assert count_homogeneous(scheme, n) == expected


# random scanners of 1-6 states; a single state is the sweep without a scanner, [0], [0], 0
scanners = st.integers(1, 6).flatmap(lambda size: st.tuples(
    st.lists(st.integers(0, size - 1), min_size=size, max_size=size),
    st.lists(st.integers(0, size - 1), min_size=size, max_size=size),
    st.integers(0, size - 1)))


class TestLaneSweepSchedule:
    """``lane_sweep`` reads its windows from a schedule memoized per (scheme,
    score, horizon, model) and skips the shift of a window that keeps the
    lowest lane; each yield equals the sweep that computes every window
    inline and always shifts (``oracles.inline_lane_sweep``)."""

    @staticmethod
    def assert_same_sweep(scanner, scheme, score, horizon, model):
        args = (*scanner, scheme, score, horizon, model)
        assert list(lane_sweep(*args)) == list(inline_lane_sweep(*args)), args

    def test_every_small_scheme(self):
        # each call takes a new key, so none reads the schedule memoized for another
        for s in range(1, 6):
            for p in range(1, 6):
                for model in MODELS:
                    for horizon in range(1, 65):
                        q = horizon // 4
                        score = (horizon - q) * s - q * p
                        self.assert_same_sweep(([0], [0], 0), ScoringScheme(s, p), score,
                                               horizon, model)

    @properties
    @given(scanner=scanners, data=st.data())
    def test_random_scanners_and_alternating_keys(self, scanner, data):
        # two keys swept in turn: every sweep must run its own key's schedule
        keys = []
        for label in ("first", "second"):
            s = data.draw(st.integers(1, 5), label=f"{label} s")
            p = data.draw(st.integers(1, 5), label=f"{label} p")
            horizon = data.draw(st.integers(1, 64), label=f"{label} horizon")
            score = data.draw(st.integers(-horizon * p, horizon * s), label=f"{label} score")
            model = data.draw(st.sampled_from(MODELS), label=f"{label} model")
            keys.append((ScoringScheme(s, p), score, horizon, model))
        for key in keys + keys:
            self.assert_same_sweep(scanner, *key)
