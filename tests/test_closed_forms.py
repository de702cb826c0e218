"""The sweep's counts and sampler rows against closed forms, at lengths no
enumeration reaches."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from seedsense.alignments import DetectionStrategy, ScoringScheme, Seed
from seedsense.counting import UNIFORM, InfeasibleScore, count_homogeneous
from seedsense.sampling import _population
from seedsense.sensitivity import SensitivityQuery, hit_probability

from oracles import run_free_count, strip_walk_count, strip_walks


def test_strip_walk_count_equals_count_homogeneous():
    # every score at every length to 59, and four lengths far past the enumerations
    scheme = ScoringScheme(1, 1)
    lengths = [*range(1, 60), 128, 255, 256, 400]
    differ = [(n, t) for n in lengths for t in range(1, n + 1)
              if count_homogeneous(scheme, n, t) != strip_walk_count(n, t)]
    assert not differ


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 400), st.integers(2, 20),
       st.data())
def test_runs_count_equals_all_model_hits(s, p, n, w, data):
    # the contiguous seed 1^w misses exactly the sequences without a run of w matches
    q = data.draw(st.integers(0, n), label="mismatches")
    query = SensitivityQuery(DetectionStrategy(Seed("1" * w)), ScoringScheme(s, p), n,
                             n * s - q * (s + p), UNIFORM)
    report = hit_probability(query)
    assert (report.numerator, report.denominator) == (comb(n, q) - run_free_count(n, q, w),
                                                      comb(n, q))


def step_entry(n: int, t: int, j: int, u: int) -> int:
    """The (1,1) sampler's ``steps[j][u]`` for the class of score t at length n: the
    members that, at ordinate y = j - 2u after j letters, take a match at step j."""
    y = j - 2 * u
    if j == n - 1:
        return int(y + 1 == t)
    # after the match at ordinate y + 1, walk to t - 1 inside the band; the last
    # letter is the match onto t
    return strip_walks(y + 1, t - 1, t, n - j - 2) if 0 < y + 1 < t else 0


def differing_steps(n: int, t: int) -> list[tuple[int, int, int, int]]:
    """The in-band entries, (n, t, j, u), of the (1,1) sampler's rows for score t at
    length n that differ from the closed form; an empty class must raise."""
    expected = strip_walk_count(n, t)
    if not expected:
        with pytest.raises(InfeasibleScore):
            _population(ScoringScheme(1, 1), n, t)
        return []
    [(size, steps)] = _population(ScoringScheme(1, 1), n, t)
    assert size == expected, (n, t)
    # an entry is in band when its walk can be there: at the start, or strictly
    # inside (0, t); outside, no rank reads it
    return [(n, t, j, u) for j, row in enumerate(steps) for u, entry in enumerate(row)
            if (j == 0 or 0 < j - 2 * u < t) and entry != step_entry(n, t, j, u)]


def test_sampler_rows_equal_strip_walks():
    # every score at every length to 59, and a few scores at two lengths far past the
    # enumerations
    cases = [(n, t) for n in range(1, 60) for t in range(1, n + 1)]
    cases += [(128, t) for t in (2, 32, 64, 126)]
    cases += [(400, t) for t in (2, 4, 40, 100, 200, 300, 398, 400)]
    differ = [entry for n, t in cases for entry in differing_steps(n, t)]
    assert not differ, differ[:5]


@given(st.integers(1, 400), st.data())
def test_sampler_rows_equal_strip_walks_property(n, data):
    q = data.draw(st.integers(0, (n - 1) // 2), label="mismatches")
    assert not differing_steps(n, n - 2 * q)
