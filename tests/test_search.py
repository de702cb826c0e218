import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import seedsense.search as search_mod
from seedsense.alignments import DetectionStrategy, ScoringScheme, enumerate_homogeneous, seed_detects
from seedsense.counting import HOMOGENEOUS, UNIFORM, InfeasibleScore
from seedsense.search import RankedSeeds, SearchSpec, enumerate_seeds, find_optimal, seed_count
from seedsense.sensitivity import SensitivityQuery, SensitivityReport, hit_probability

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)


class TestEnumerateSeeds:
    def test_examples(self):
        assert [s.pattern for s in enumerate_seeds(2, 3)] == ["11", "101"]
        assert [s.pattern for s in enumerate_seeds(3, 4)] == ["111", "1011", "1101"]

    def test_count_formula(self):
        assert seed_count(9, 15) == 3003
        assert sum(1 for _ in enumerate_seeds(5, 9)) == seed_count(5, 9)

    def test_count_matches_enumeration_random(self):
        rng = random.Random(37)
        for _ in range(20):
            weight = rng.randint(2, 6)
            max_span = rng.randint(weight, weight + 5)
            assert sum(1 for _ in enumerate_seeds(weight, max_span)) == \
                seed_count(weight, max_span)

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
        assert [(e.seed.pattern, e.probability) for e in ranked.entries] == \
            [(pattern, -key) for key, pattern in oracle]
        assert ranked.entries[0].seed.pattern == "100101"
        assert ranked.entries[0].probability == Fraction(7, 8)

    def test_parallel_equals_serial(self):
        spec = SearchSpec(3, 7, S13, 12, 8, HOMOGENEOUS, top_k=10)
        serial = find_optimal(spec, threads=1)
        parallel = find_optimal(spec, threads=2)
        assert serial.entries == parallel.entries
        assert serial.candidate_count == parallel.candidate_count

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
        assert ranked.candidate_count == seed_count(3, 6)
        assert ranked.elapsed_seconds >= 0

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
        spec = SearchSpec(weight, max_span, scheme, n, (n - q) * s - q * p, model,
                          top_k=seed_count(weight, max_span))
        try:
            reports = [hit_probability(SensitivityQuery(DetectionStrategy(seed), scheme, n,
                                                        spec.score, model))
                       for seed in enumerate_seeds(weight, max_span)]
        except InfeasibleScore:
            with pytest.raises(InfeasibleScore):
                find_optimal(spec, threads=1)
            return
        reports.sort(key=lambda r: (Fraction(-r.numerator, r.denominator),
                                    r.query.strategy.seed.pattern))
        ranked = find_optimal(spec, threads=1)
        assert [(e.seed, e.numerator, e.denominator) for e in ranked.entries] == \
            [(r.query.strategy.seed, r.numerator, r.denominator) for r in reports]

    def test_miscounted_population_raises(self, monkeypatch):
        # a sweep that reports another population than the one counted up front
        profile = search_mod.hit_probability_profile

        def miscounted(*args):
            return [SensitivityReport(r.query, r.numerator, r.denominator + 1)
                    for r in profile(*args)]
        monkeypatch.setattr(search_mod, "hit_probability_profile", miscounted)
        with pytest.raises(RuntimeError, match="population"):
            find_optimal(SearchSpec(3, 6, S11, 12, 4, HOMOGENEOUS), threads=1)
