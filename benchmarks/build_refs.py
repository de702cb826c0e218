"""Write refs.json: exact answers for every entry of the benchmark's input pool.

    PYTHONPATH=src python3 benchmarks/build_refs.py

Run from the repository root. The answers come from the package at the
current commit; entries short enough to enumerate (n <= 16) are re-verified
against brute force, every mirror query must equal its original, and every
denominator must equal the population counted in checks.py.
"""

from __future__ import annotations

import json
import sys
from itertools import combinations
from pathlib import Path

from seedsense.alignments import (
    Alignment, DetectionStrategy, ScoringScheme, Seed, enumerate_homogeneous, strategy_detects,
)
from seedsense.counting import count_homogeneous
from seedsense.search import SearchSpec, find_optimal
from seedsense.sensitivity import hit_probability_profile

import pool
from checks import population

BRUTE_FORCE_MAX_LENGTH = 16
SCHEME = ScoringScheme(pool.MATCH, pool.MISMATCH)


def brute_force(strategy: DetectionStrategy, n: int, score: int, model: str) -> str:
    if model == "homogeneous":
        members = enumerate_homogeneous(SCHEME, n, score)
    else:
        matches = (score + n * pool.MISMATCH) // (pool.MATCH + pool.MISMATCH)
        members = [Alignment(n, (1 << n) - 1 - sum(1 << i for i in miss))
                   for miss in combinations(range(n), n - matches)]
    hits = sum(strategy_detects(strategy, a) for a in members)
    return f"{hits}/{len(members)}"


def profile(pattern: str, k: int, w: int, score: int, lengths: list[int],
            model: str) -> dict[int, str]:
    strategy = DetectionStrategy(Seed(pattern), k, w)
    reports = hit_probability_profile(strategy, SCHEME, score, lengths, model)
    out = {}
    for n, r in zip(lengths, reports):
        frac = f"{r.numerator}/{r.denominator}"
        if r.denominator != population(n, score, model):
            raise SystemExit(f"{pattern} n={n} S={score} {model}: denominator {frac}")
        if n <= BRUTE_FORCE_MAX_LENGTH and brute_force(strategy, n, score, model) != frac:
            raise SystemExit(f"{pattern} n={n} S={score} {model}: brute force disagrees")
        out[n] = frac
    return out


def curve_lengths(lo: int, hi: int, score: int) -> list[int]:
    # lengths a `--model both` curve keeps: a nonempty homogeneous population
    return [n for n in range(lo, hi + 1) if population(n, score, "homogeneous") > 0]


def ranking(spec: dict, model: str) -> list[list[str]]:
    ranked = find_optimal(SearchSpec(spec["weight"], spec["max_span"], SCHEME, spec["length"],
                                     spec["score"], model), threads=pool.OPTIMIZE_THREADS)
    return [[e.seed.pattern, str(e.numerator), str(e.denominator)] for e in ranked.entries]


def main() -> None:
    refs: dict = {"sensitivity": {}, "curve": {}, "optimize": {}, "count": {}}
    for pattern, k, w, n, s, model in pool.sensitivity_queries():
        refs["sensitivity"][pool.query_key(pattern, k, w, n, s, model)] = \
            profile(pattern, k, w, s, [n], model)[n]
    for pattern in pool.PATTERNS:
        for model in pool.MODELS:
            mirrored = pool.query_key(pattern[::-1], 1, 0, *pool.MIRROR_CELL, model)
            if refs["sensitivity"][mirrored] != \
                    refs["sensitivity"][pool.query_key(pattern, 1, 0, *pool.MIRROR_CELL, model)]:
                raise SystemExit(f"{pattern} and its mirror differ under {model}")
        for score in pool.CURVE_SCORES:
            lengths = curve_lengths(*pool.CURVE_RANGE, score)
            refs["curve"][pool.curve_key(pattern, score)] = {
                model: {str(n): f for n, f in profile(pattern, 1, 0, score, lengths, model).items()}
                for model in pool.MODELS
            }
    for spec in (pool.OPTIMIZE, pool.PROBE_OPTIMIZE):
        for model in pool.MODELS:
            refs["optimize"][pool.optimize_key(spec, model)] = ranking(spec, model)
    for n in (*pool.COUNT_FREE_LENGTHS, pool.PROBE_COUNT_FREE_LENGTH):
        refs["count"][str(n)] = str(count_homogeneous(SCHEME, n))
    target = Path(__file__).with_name("refs.json")
    target.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}: {len(refs['sensitivity'])} queries, {len(refs['curve'])} curves, "
          f"{len(refs['optimize'])} rankings, {len(refs['count'])} counts", file=sys.stderr)


if __name__ == "__main__":
    main()
