"""The committed benchmark answers, recomputed: the only unit check of hit counts
at lengths above 40.

``benchmarks/refs.json`` was written under the CLI's default scheme (1, 3) by a
different dynamic program than the one the package runs; this module only reads
it.
"""

import json
from pathlib import Path

import pytest

from seedsense.alignments import DetectionStrategy, ScoringScheme, Seed
from seedsense.counting import count_homogeneous
from seedsense.search import SearchSpec, find_optimal
from seedsense.sensitivity import hit_probability_profile

REFS = json.loads((Path(__file__).parents[1] / "benchmarks" / "refs.json").read_text())
SCHEME = ScoringScheme(1, 3)


def fractions(pattern, occurrences, overlap, score, lengths, model):
    reports = hit_probability_profile(DetectionStrategy(Seed(pattern), occurrences, overlap),
                                      SCHEME, score, lengths, model)
    return {str(n): f"{r.numerator}/{r.denominator}" for n, r in zip(lengths, reports)}


def test_sensitivity_entries():
    # key: pattern:occurrences:overlap:length:score:model
    assert len(REFS["sensitivity"]) == 72
    for key, expected in REFS["sensitivity"].items():
        pattern, k, w, n, score, model = key.split(":")
        got = fractions(pattern, int(k), int(w), int(score), [int(n)], model)[n]
        assert got == expected, key


def test_curve_entries():
    # key: pattern:score, then model -> length -> fraction
    assert len(REFS["curve"]) == 16
    for key, by_model in REFS["curve"].items():
        pattern, score = key.split(":")
        for model, expected in by_model.items():
            lengths = sorted(map(int, expected))
            assert fractions(pattern, 1, 0, int(score), lengths, model) == expected, \
                (key, model)


def test_count_entries():
    assert len(REFS["count"]) == 3
    for n, expected in REFS["count"].items():
        assert str(count_homogeneous(SCHEME, int(n))) == expected, n


@pytest.mark.parametrize("model", ["homogeneous", "all"])
def test_optimize_ranking(model):
    key = f"w9:s11:n40:S12:{model}"
    ranked = find_optimal(SearchSpec(9, 11, SCHEME, 40, 12, model), threads=1)
    got = [[e.seed.pattern, str(e.numerator), str(e.denominator)] for e in ranked.entries]
    assert got == REFS["optimize"][key]
