"""The sweep's counts against closed forms, at lengths no enumeration reaches."""

from math import comb

from hypothesis import given, strategies as st

from seedsense.alignments import DetectionStrategy, ScoringScheme, Seed
from seedsense.counting import UNIFORM, count_homogeneous
from seedsense.sensitivity import SensitivityQuery, hit_probability

from oracles import run_free_count, strip_walk_count


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
