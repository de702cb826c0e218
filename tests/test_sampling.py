import math
import os
from collections import Counter
from contextlib import contextmanager

import pytest
import scipy.stats
from hypothesis import given, reject, settings, strategies as st

import seedsense.sampling as sampling_mod
from seedsense.alignments import (
    Alignment,
    ScoringScheme,
    enumerate_homogeneous,
    is_homogeneous,
    score,
)
from seedsense.counting import HOMOGENEOUS, UNIFORM, InfeasibleScore, positive_scores
from seedsense.sampling import (
    RandomStream,
    _GOLDEN,
    _population,
    _ranks,
    _splitmix64,
    _unrank,
    sample_fixed,
    sample_free,
)

from oracles import GenerationBudgetExceeded, sample_rejection, unrank_by_walk

S11 = ScoringScheme(1, 1)
S13 = ScoringScheme(1, 3)
MASK64 = (1 << 64) - 1


def rank_by_definition(seed, index, bound):
    """(rank, tries) of sample `index`: ceil(k/64) words per try from the
    SplitMix64 sequence started at spawn(index).seed, for a k-bit bound, top
    bits kept, and a try that is not below the bound rejected."""
    k = (bound - 1).bit_length()
    words = -(-k // 64)
    state = RandomStream(seed).spawn(index).seed
    tries = 0
    while True:
        tries += 1
        r = 0
        for _ in range(words):
            state = (state + _GOLDEN) & MASK64
            r = r << 64 | _splitmix64(state)
        r >>= 64 * words - k
        if r < bound:
            return r, tries


class TestRandomStream:
    def test_rejects_bad_seeds(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(1 << 64)

    def test_same_seed_same_draws(self):
        a = RandomStream(123)
        b = RandomStream(123)
        assert [a.spawn(i).seed for i in range(20)] == [b.spawn(i).seed for i in range(20)]
        assert list(_ranks(a.seed, range(20), 1 << 32)) == list(_ranks(b.seed, range(20), 1 << 32))

    def test_splitmix_reference_vector(self):
        # first output of the published SplitMix64 sequence seeded with 0
        assert _splitmix64(_GOLDEN) == 0xE220A8397B1DCDAF
        assert RandomStream(0).spawn(0).seed == 0xE220A8397B1DCDAF

    def test_spawn_deterministic_and_distinct(self):
        base = RandomStream(99)
        children = [base.spawn(i).seed for i in range(64)]
        assert children == [RandomStream(99).spawn(i).seed for i in range(64)]
        assert len(set(children)) == 64
        with pytest.raises(ValueError):
            base.spawn(-1)


# the example count comes from the hypothesis profile (see conftest.py)
properties = settings(deadline=None, derandomize=True)


# bound, and whether it rejects about half the tries
RANK_BOUNDS = [
    pytest.param(1, False, id="1"),
    pytest.param(1 << 20, False, id="2^20"),
    pytest.param(1 << 64, False, id="2^64"),
    pytest.param((1 << 64) + 1, True, id="2^64+1"),
    pytest.param((1 << 129) + 12345, True, id="130-bit"),
]


class TestRank:
    def test_range(self):
        for bound in (1, 2, 3, 10, 1 << 70):
            assert all(0 <= r < bound for r in _ranks(7, range(50), bound))
        with pytest.raises(ValueError):
            list(_ranks(7, [0], 0))

    @pytest.mark.parametrize("bound, rejects", RANK_BOUNDS)
    def test_equals_per_index_definition(self, bound, rejects):
        expected = [rank_by_definition(5, i, bound) for i in range(300)]
        assert list(_ranks(5, range(300), bound)) == [r for r, _ in expected]
        assert any(tries > 1 for _, tries in expected) == rejects

    @pytest.mark.parametrize("bound, rejects", RANK_BOUNDS)
    @pytest.mark.parametrize("workers", [2, 3])
    def test_strided_chunks(self, bound, rejects, workers):
        # what worker w of W draws: every W-th index from w
        for w in range(workers):
            indices = range(w, 100, workers)
            assert list(_ranks(11, indices, bound)) == \
                [rank_by_definition(11, i, bound)[0] for i in indices]

    def test_words_continue_the_child_seed(self):
        # a 64-bit bound takes the first word after spawn(i).seed, unrejected
        children = [RandomStream(99).spawn(i).seed for i in range(8)]
        assert list(_ranks(99, range(8), 1 << 64)) == \
            [_splitmix64((child + _GOLDEN) & MASK64) for child in children]

    @properties
    @pytest.mark.parametrize("batch", [1, 3, 7])
    @given(seed=st.integers(0, MASK64),
           bound=st.one_of(
               # (bound - 1).bit_length() == bits, from 0 to 200
               st.integers(0, 200).flatmap(lambda bits: st.integers((1 << bits >> 1) + 1,
                                                                    1 << bits)),
               st.sampled_from([MASK64, 1 << 64, (1 << 64) + 1])),
           indices=st.one_of(
               st.lists(st.integers(0, MASK64), max_size=20),
               st.builds(range, st.integers(0, 40), st.integers(0, 80), st.integers(1, 5))))
    def test_batched_equals_per_index_definition(self, batch, seed, bound, indices):
        # small batches split the indices mid-sequence, and the rejected lanes of a
        # batch retry as a smaller one
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling_mod, "_BATCH", batch)
            assert list(_ranks(seed, indices, bound)) == \
                [rank_by_definition(seed, i, bound)[0] for i in indices]

    def test_neighbouring_indices_do_not_share_words(self):
        # bound 2**20 + 1 rejects about half the tries; a retry word that is the
        # next index's first word would make about a quarter of neighbours equal
        bound = (1 << 20) + 1
        ranks = list(_ranks(3, range(20_000), bound))
        equal = sum(a == b for a, b in zip(ranks, ranks[1:]))
        assert equal / (len(ranks) - 1) < 0.001


@contextmanager
def walk_rule(hot, block=sampling_mod._BLOCK):
    """_unrank with every class hot (walked by `block`-letter tables) or every class cold."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling_mod, "_HOT", 0 if hot else math.inf)
        patch.setattr(sampling_mod, "_BLOCK", block)
        yield


def unrank_both_ways(population, ranks):
    """_unrank's output with every class hot, after checking that with every class
    cold it gives the same members in the same order."""
    ranks = list(ranks)
    with walk_rule(hot=False):
        cold = list(_unrank(population, ranks, len(ranks)))
    with walk_rule(hot=True):
        hot = list(_unrank(population, ranks, len(ranks)))
    assert hot == cold
    return hot


class TestUnranking:
    """Every rank below the population, walked directly, gives each member once,
    with the tables of every class built (hot) and with none (cold)."""

    def test_fixed_score_bijection(self):
        population = _population(S13, 20, 8)
        members = sorted(a.bits for a in enumerate_homogeneous(S13, 20, 8))
        assert population[0][0] == len(members)
        assert sorted(unrank_both_ways(population, range(len(members)))) == members

    def test_free_score_bijection(self):
        population = _population(S11, 12, None)
        members = sorted(a.bits for a in enumerate_homogeneous(S11, 12))
        assert len(members) == 91
        assert sum(size for size, _ in population) == 91
        assert sorted(unrank_both_ways(population, range(91))) == members

    def test_uniform_model_bijection(self):
        # scheme (1, 1), length 10, score 4: 7 matches and 3 mismatches
        population = _population(S11, 10, 4, UNIFORM)
        members = [bits for bits in range(1 << 10) if bits.bit_count() == 7]
        assert population[0][0] == len(members) == math.comb(10, 3)
        assert sorted(unrank_both_ways(population, range(len(members)))) == members


class TestBlockRule:
    """Which classes _unrank builds tables for: the rule, pinned by counting builds."""

    @pytest.fixture
    def built(self, monkeypatch):
        slots = []
        block = sampling_mod._block

        def counted(steps, j, u, size):
            slots.append((j, u))
            return block(steps, j, u, size)

        monkeypatch.setattr(sampling_mod, "_block", counted)
        return slots

    def test_few_samples_over_many_classes_build_none(self, built):
        # 50 samples over the 49 score classes of length 200
        assert len(sample_free(S13, 200, 50, RandomStream(1))) == 50
        assert built == []

    def test_many_samples_in_one_class_build_each_slot_at_most_once(self, built):
        # 5 blocks of 8 letters, q = 7: at most 5 * 8 tables
        sample_fixed(S13, 40, 12, 20_000, RandomStream(1))
        assert 0 < len(built) <= 5 * 8
        assert len(set(built)) == len(built)


schemes = st.tuples(st.integers(1, 5), st.integers(1, 5)).map(lambda sp: ScoringScheme(*sp))
lengths = st.integers(1, 12)


class TestUnrankingProperties:
    """Random schemes (s, p) in [1, 5]^2 and lengths up to 12: unranking every
    rank below the population gives each enumerated member exactly once, hot
    and cold; up to length 40, it gives rank for rank the member of the
    per-letter reference walk."""

    @properties
    @given(scheme=schemes, n=lengths, data=st.data())
    def test_fixed_score(self, scheme, n, data):
        q = data.draw(st.integers(0, n), label="mismatches")
        total = (n - q) * scheme.match_score - q * scheme.mismatch_penalty
        members = sorted(a.bits for a in enumerate_homogeneous(scheme, n, total))
        if not members:
            with pytest.raises(InfeasibleScore):
                _population(scheme, n, total)
            return
        population = _population(scheme, n, total)
        assert sorted(unrank_both_ways(population, range(len(members)))) == members

    @properties
    @given(scheme=schemes, n=lengths)
    def test_free_score(self, scheme, n):
        members = sorted(a.bits for a in enumerate_homogeneous(scheme, n))
        population = _population(scheme, n, None)
        size = sum(size for size, _ in population)
        assert size == len(members)
        assert sorted(unrank_both_ways(population, range(size))) == members

    @properties
    @given(scheme=schemes, n=lengths, data=st.data())
    def test_uniform(self, scheme, n, data):
        q = data.draw(st.integers(0, n), label="mismatches")
        total = (n - q) * scheme.match_score - q * scheme.mismatch_penalty
        members = [bits for bits in range(1 << n) if bits.bit_count() == n - q]
        population = _population(scheme, n, total, UNIFORM)
        assert population[0][0] == len(members)
        assert sorted(unrank_both_ways(population, range(len(members)))) == members

    @properties
    @pytest.mark.parametrize("hot", [pytest.param(True, id="hot"), pytest.param(False, id="cold")])
    @pytest.mark.parametrize("block", [1, 3, 8])
    @given(scheme=schemes, n=st.integers(1, 40), kind=st.sampled_from(["fixed", "free", "uniform"]),
           data=st.data())
    def test_equals_reference_walk(self, block, hot, scheme, n, kind, data):
        s, p = scheme.match_score, scheme.mismatch_penalty
        if kind == "fixed":
            score, model = data.draw(st.sampled_from(positive_scores(scheme, n)), "score"), HOMOGENEOUS
        elif kind == "free":
            score, model = None, HOMOGENEOUS
        else:
            q = data.draw(st.integers(0, n), label="mismatches")
            score, model = (n - q) * s - q * p, UNIFORM
        try:
            population = _population(scheme, n, score, model)
        except InfeasibleScore:
            reject()
        total = sum(size for size, _ in population)
        ranks = []
        start = 0
        for size, _ in population:
            # each class's first and last rank, and one past each side of its boundaries
            ranks += [start - 1, start, start + 1, start + size - 2, start + size - 1, start + size]
            start += size
        ranks = [r for r in ranks if 0 <= r < total]
        random = data.draw(st.randoms(use_true_random=False), "random")
        ranks += [random.randrange(total) for _ in range(50)]
        with walk_rule(hot, block):
            assert list(_unrank(population, ranks, len(ranks))) == \
                list(unrank_by_walk(population, ranks))


class TestSampleFixed:
    def test_unique_member(self):
        out = sample_fixed(S11, 5, 3, 50, RandomStream(1))
        assert {str(a) for a in out} == {"11011"}

    def test_all_match(self):
        out = sample_fixed(S13, 6, 6, 10, RandomStream(2))
        assert {str(a) for a in out} == {"111111"}

    def test_infeasible(self):
        with pytest.raises(InfeasibleScore):
            sample_fixed(S13, 5, 2, 1, RandomStream(0))
        with pytest.raises(InfeasibleScore):
            sample_fixed(S13, 12, 4, 1, RandomStream(0))  # feasible composition, empty set

    def test_validity_and_score(self):
        for a in map(Alignment.from_string, sample_fixed(S13, 14, 6, 500, RandomStream(3))):
            assert is_homogeneous(a, S13)
            assert score(a, S13) == 6

    def test_validity_general_scheme(self):
        scheme = ScoringScheme(2, 3)
        for a in map(Alignment.from_string, sample_fixed(scheme, 12, 9, 300, RandomStream(14))):
            assert is_homogeneous(a, scheme)
            assert score(a, scheme) == 9
        for a in map(Alignment.from_string, sample_free(scheme, 12, 300, RandomStream(15))):
            assert is_homogeneous(a, scheme)

    def test_deterministic(self):
        a = sample_fixed(S13, 14, 6, 40, RandomStream(9))
        b = sample_fixed(S13, 14, 6, 40, RandomStream(9))
        assert a == b

    def test_worker_split_invariant(self):
        serial = sample_fixed(S11, 11, 5, 30, RandomStream(4), workers=1)
        split = sample_fixed(S11, 11, 5, 30, RandomStream(4), workers=2)
        assert serial == split

    def test_empty(self):
        assert sample_fixed(S11, 5, 3, 0, RandomStream(0)) == []


class TestSampleFree:
    def test_unique_member(self):
        assert {str(a) for a in sample_free(S13, 3, 20, RandomStream(1))} == {"111"}
        assert {str(a) for a in sample_free(S13, 1, 5, RandomStream(1))} == {"1"}

    def test_two_members_balanced(self):
        counts = Counter(str(a) for a in sample_free(S11, 5, 2000, RandomStream(42)))
        assert set(counts) == {"11111", "11011"}
        assert 0.4 < counts["11011"] / 2000 < 0.6

    def test_validity(self):
        for a in map(Alignment.from_string, sample_free(S11, 12, 300, RandomStream(8))):
            assert is_homogeneous(a, S11)

    def test_worker_split_invariant(self):
        serial = sample_free(S11, 10, 30, RandomStream(4), workers=1)
        split = sample_free(S11, 10, 30, RandomStream(4), workers=3)
        assert serial == split

    def test_uniform_across_score_classes(self):
        # 91 members in 5 score classes: {4: 16, 6: 40, 8: 26, 10: 8, 12: 1}
        members = [str(a) for a in enumerate_homogeneous(S11, 12)]
        assert len(members) == 91
        draws = 20_000
        counts = Counter(str(a) for a in sample_free(S11, 12, draws, RandomStream(2024)))
        assert set(counts) <= set(members)
        expected = draws / len(members)
        stat = sum((counts[m] - expected) ** 2 / expected for m in members)
        assert scipy.stats.chi2.sf(stat, len(members) - 1) > 0.001


def _fixed(samples, workers):
    return sample_fixed(S11, 11, 5, samples, RandomStream(4), workers=workers)


def _free(samples, workers):
    return sample_free(S11, 10, samples, RandomStream(4), workers=workers)


class TestWorkerCap:
    @pytest.mark.parametrize("draw, samples, cpus, opened", [
        pytest.param(_fixed, 30, 2, 2, id="fixed"),
        pytest.param(_free, 30, 2, 2, id="free"),
        pytest.param(_fixed, 31, 3, 3, id="fixed-uneven"),
        pytest.param(_free, 31, 3, 3, id="free-uneven"),
        pytest.param(_fixed, 2, 3, 2, id="fewer-samples-than-cpus"),
    ])
    def test_capped_at_cpu_count(self, draw, samples, cpus, opened, serial_pool, usable_cpus):
        serial = draw(samples, 1)
        usable_cpus(cpus)
        assert draw(samples, 10_000) == serial
        assert serial_pool == [opened]

    def test_unknown_cpu_count_means_serial(self, serial_pool, usable_cpus):
        usable_cpus(None)
        serial = sample_fixed(S11, 11, 5, 30, RandomStream(4))
        assert sample_fixed(S11, 11, 5, 30, RandomStream(4), workers=8) == serial
        assert serial_pool == []

    def test_capped_at_the_affinity_set(self, serial_pool, monkeypatch):
        # taskset -c 0 on an 8-CPU host: one usable CPU, so no pool
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = sample_fixed(S11, 11, 5, 30, RandomStream(4))
        assert sample_fixed(S11, 11, 5, 30, RandomStream(4), workers=8) == serial
        assert serial_pool == []

    def test_host_count_without_an_affinity_set(self, serial_pool, usable_cpus, monkeypatch):
        usable_cpus(None)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial = sample_fixed(S11, 11, 5, 30, RandomStream(4))
        assert sample_fixed(S11, 11, 5, 30, RandomStream(4), workers=8) == serial
        assert serial_pool == [2]


class TestSampleRejection:
    def test_unique_member(self):
        out = sample_rejection(S11, 5, 3, 20, 1)
        assert {str(a) for a in out} == {"11011"}

    def test_free_score_validity(self):
        for a in sample_rejection(S13, 8, None, 50, 2):
            assert is_homogeneous(a, S13)

    def test_rejects_beyond_limit(self):
        with pytest.raises(ValueError):
            sample_rejection(S11, 21, None, 1, 0)

    def test_budget_exhaustion(self):
        with pytest.raises(GenerationBudgetExceeded):
            sample_rejection(S13, 5, 2, 1, 0, max_attempts=500)

    def test_agrees_with_exact_sampler(self):
        # both samplers target the same uniform distribution over 21 members
        members = [str(a) for a in enumerate_homogeneous(S11, 11, 5)]
        fixed = Counter(str(a) for a in sample_fixed(S11, 11, 5, 2000, RandomStream(5)))
        rejected = Counter(str(a) for a in sample_rejection(S11, 11, 5, 2000, 6))
        assert set(fixed) <= set(members)
        assert set(rejected) <= set(members)
        tv = 0.5 * sum(abs(fixed[m] - rejected[m]) / 2000 for m in members)
        assert tv < 0.15
