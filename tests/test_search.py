import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import seedsense.search as search_mod
from seedsense.alignments import DetectionStrategy, ScoringScheme, enumerate_homogeneous, seed_detects
from seedsense.counting import HOMOGENEOUS, UNIFORM, InfeasibleScore
from seedsense.search import RankedSeeds, SearchSpec, enumerate_seeds, find_optimal
from seedsense.sensitivity import SensitivityQuery, SensitivityReport, hit_probability

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)


class TestEnumerateSeeds:
    def test_examples(self):
        assert [s.pattern for s in enumerate_seeds(2, 3)] == ["11", "101"]
        assert [s.pattern for s in enumerate_seeds(3, 4)] == ["111", "1011", "1101"]

    def test_count_matches_enumeration_random(self):
        rng = random.Random(37)
        for _ in range(20):
            weight = rng.randint(2, 6)
            max_span = rng.randint(weight, weight + 5)
            # span - 2 interior positions hold the weight - 2 required ones
            spans = Counter(seed.span for seed in enumerate_seeds(weight, max_span))
            assert spans == {span: comb(span - 2, weight - 2)
                             for span in range(weight, max_span + 1)}

    def test_ordering(self):
        seeds = [s.pattern for s in enumerate_seeds(3, 6)]
        keyed = [(len(p), p) for p in seeds]
        assert keyed == sorted(keyed)

    def test_contiguous_seed_included(self):
        assert "1111" in [s.pattern for s in enumerate_seeds(4, 6)]

    def test_all_canonical_with_weight(self):
        for seed in enumerate_seeds(4, 7):
            assert seed.weight == 4
            assert seed.pattern[0] == "1" and seed.pattern[-1] == "1"

    def test_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_seeds(1, 5))
        with pytest.raises(ValueError):
            list(enumerate_seeds(4, 3))


class TestSearchSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSpec(1, 5, S11, 10, 4)
        with pytest.raises(ValueError):
            SearchSpec(3, 2, S11, 10, 4)
        with pytest.raises(ValueError):
            SearchSpec(3, 5, S11, 10, 4, HOMOGENEOUS, 0)
        with pytest.raises(ValueError):
            SearchSpec(3, 5, S11, 10, 4, "markov")

    def test_homogeneous_score_below_one_rejected(self):
        with pytest.raises(ValueError, match="score >= 1"):
            SearchSpec(2, 3, S11, 10, 0)
        assert SearchSpec(2, 3, S11, 10, 0, UNIFORM).score == 0


class TestFindOptimal:
    def test_matches_scan_oracle(self):
        spec = SearchSpec(3, 6, S11, 12, 4, HOMOGENEOUS, top_k=50)
        ranked = find_optimal(spec, threads=1)
        members = enumerate_homogeneous(S11, 12, 4)
        oracle = []
        for seed in enumerate_seeds(3, 6):
            hits = sum(seed_detects(seed, a) for a in members)
            oracle.append((Fraction(-hits, len(members)), seed.pattern))
        oracle.sort()
        assert [(e.seed.pattern, Fraction(e.numerator, e.denominator))
                for e in ranked.entries] == [(pattern, -key) for key, pattern in oracle]
        top = ranked.entries[0]
        assert top.seed.pattern == "100101"
        assert Fraction(top.numerator, top.denominator) == Fraction(7, 8)

    def test_parallel_equals_serial(self):
        spec = SearchSpec(3, 7, S13, 12, 8, HOMOGENEOUS, top_k=10)
        serial = find_optimal(spec, threads=1)
        parallel = find_optimal(spec, threads=2)
        assert serial.entries == parallel.entries
        assert serial.candidate_count == parallel.candidate_count

    def test_parallel_record_equals_serial(self):
        # a ranking is a value: two runs of one spec give equal records, whatever the
        # worker count
        spec = SearchSpec(3, 6, S11, 12, 4, UNIFORM, top_k=5)
        assert find_optimal(spec, threads=1) == find_optimal(spec, threads=2)

    def test_threads_capped_at_cpu_count(self, serial_pool, usable_cpus):
        spec = SearchSpec(3, 7, S13, 12, 8, HOMOGENEOUS, top_k=10)
        serial = find_optimal(spec, threads=1)
        usable_cpus(3)
        assert find_optimal(spec, threads=10_000).entries == serial.entries
        assert find_optimal(spec).entries == serial.entries
        assert serial_pool == [3, 3]

    def test_uniform_model(self):
        spec = SearchSpec(2, 4, S13, 10, 6, UNIFORM, top_k=3)
        ranked = find_optimal(spec, threads=1)
        top = ranked.entries[0]
        report = hit_probability(SensitivityQuery(
            DetectionStrategy(top.seed), S13, 10, 6, UNIFORM))
        assert (top.numerator, top.denominator) == (report.numerator, report.denominator)

    def test_top_k_truncation_and_metadata(self):
        spec = SearchSpec(3, 6, S11, 12, 4, HOMOGENEOUS, top_k=2)
        ranked = find_optimal(spec, threads=1)
        assert isinstance(ranked, RankedSeeds)
        assert len(ranked.entries) == 2
        assert ranked.candidate_count == sum(1 for _ in enumerate_seeds(3, 6))

    def test_rank_entries_reproducible_standalone(self):
        spec = SearchSpec(2, 5, S11, 10, 4, HOMOGENEOUS, top_k=4)
        ranked = find_optimal(spec, threads=1)
        for entry in ranked.entries:
            report = hit_probability(SensitivityQuery(
                DetectionStrategy(entry.seed), S11, 10, 4, HOMOGENEOUS))
            assert (entry.numerator, entry.denominator) == \
                (report.numerator, report.denominator)

    def test_infeasible_propagates(self):
        with pytest.raises(InfeasibleScore):
            find_optimal(SearchSpec(2, 3, S13, 5, 2), threads=1)

    @settings(deadline=None, derandomize=True)
    @given(s=st.integers(1, 3), p=st.integers(1, 3), weight=st.integers(2, 4),
           model=st.sampled_from([HOMOGENEOUS, UNIFORM]), data=st.data())
    def test_ranking_equals_sorted_standalone_probabilities(self, s, p, weight, model, data):
        # the integer ranking against its definition: every candidate's standalone
        # report, sorted by exact probability (descending), then by pattern
        max_span = data.draw(st.integers(weight, 8), label="max_span")
        n = data.draw(st.integers(1, 14), label="length")
        # a homogeneous score is positive
        q = data.draw(st.integers(0, (n * s - 1) // (s + p) if model == HOMOGENEOUS else n),
                      label="mismatches")
        scheme = ScoringScheme(s, p)
        seeds = list(enumerate_seeds(weight, max_span))
        spec = SearchSpec(weight, max_span, scheme, n, (n - q) * s - q * p, model,
                          top_k=len(seeds))
        try:
            reports = [hit_probability(SensitivityQuery(DetectionStrategy(seed), scheme, n,
                                                        spec.score, model))
                       for seed in seeds]
        except InfeasibleScore:
            with pytest.raises(InfeasibleScore):
                find_optimal(spec, threads=1)
            return
        standalone = sorted(zip(seeds, reports), key=lambda pair: (
            Fraction(-pair[1].numerator, pair[1].denominator), pair[0].pattern))
        ranked = find_optimal(spec, threads=1)
        assert [(e.seed, e.numerator, e.denominator) for e in ranked.entries] == \
            [(seed, r.numerator, r.denominator) for seed, r in standalone]

    def test_miscounted_population_raises(self, monkeypatch):
        # a sweep that reports another population than the one counted up front
        profile = search_mod.hit_probability_profile

        def miscounted(*args):
            return [SensitivityReport(r.numerator, r.denominator + 1)
                    for r in profile(*args)]
        monkeypatch.setattr(search_mod, "hit_probability_profile", miscounted)
        with pytest.raises(RuntimeError, match="population"):
            find_optimal(SearchSpec(3, 6, S11, 12, 4, HOMOGENEOUS), threads=1)
