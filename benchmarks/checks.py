"""Correctness checks on the CLI's CSV output.

Exact results are compared with the committed references; samples are not
pinned (the sampler's concrete draws may change) but every one is validated
by a prefix-score scan written here, independent of the package.
Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from functools import lru_cache
from itertools import accumulate

from pool import MATCH, MISMATCH

_STEP = {"1": MATCH, "0": -MISMATCH}


@lru_cache(maxsize=None)
def homogeneous_count(n: int, score: int) -> int:
    """Walks of n steps from 0 that end at `score` and stay strictly inside (0, score) before."""
    row = {0: 1}
    for k in range(1, n + 1):
        nxt: dict[int, int] = {}
        for y, c in row.items():
            for z in (y + MATCH, y - MISMATCH):
                if 0 < z < score or (k == n and z == score):
                    nxt[z] = nxt.get(z, 0) + c
        row = nxt
    return row.get(score, 0)


def population(n: int, score: int, model: str) -> int:
    if model == "homogeneous":
        return homogeneous_count(n, score)
    matches, rem = divmod(score + n * MISMATCH, MATCH + MISMATCH)
    return math.comb(n, matches) if not rem and 0 <= matches <= n else 0


def _decimal(num: int, den: int, digits: int = 6) -> str:
    with localcontext() as ctx:
        ctx.prec = 80
        value = Decimal(num) / Decimal(den)
        return str(value.quantize(Decimal(1).scaleb(-digits), rounding=ROUND_HALF_EVEN))


def _fraction(row: dict, ref: str, n: int, score: int, model: str) -> str | None:
    num, den = int(row["numerator"]), int(row["denominator"])
    if f"{num}/{den}" != ref:
        return f"got {num}/{den}, reference {ref}"
    if not 0 <= num <= den:
        return f"{num}/{den} is not a probability"
    if den != population(n, score, model):
        return f"denominator {den} is not the {model} population of n={n} S={score}"
    if row["probability"] != _decimal(num, den):
        return f"probability {row['probability']} does not render {num}/{den}"
    return None


def check_sensitivity(rows: list[dict], ref: str, pattern: str, occurrences: int,
                      overlap: int, n: int, score: int, model: str) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    row = rows[0]
    echo = (row["seed"], int(row["occurrences"]), int(row["max_overlap"]), int(row["length"]),
            int(row["score"]), row["model"])
    if echo != (pattern, occurrences, overlap, n, score, model):
        return f"query echo {echo} does not match the request"
    return _fraction(row, ref, n, score, model)


def check_curve(rows: list[dict], ref: dict, pattern: str, score: int,
                lengths: range) -> str | None:
    """`ref` maps each model to {length: "num/den"} over the lengths the curve keeps."""
    want = [(n, model) for n in lengths for model in sorted(ref) if str(n) in ref[model]]
    got = [(int(r["n"]), r["model"]) for r in rows]
    if got != want:
        return f"rows for {got[:4]}..., expected {want[:4]}... ({len(got)} vs {len(want)})"
    for row, (n, model) in zip(rows, want):
        if row["seed"] != pattern or int(row["score"]) != score:
            return f"row echo {row['seed']} {row['score']} does not match the request"
        error = _fraction(row, ref[model][str(n)], n, score, model)
        if error:
            return f"n={n} {model}: {error}"
    return None


def check_optimize(rows: list[dict], ranking: list[list]) -> str | None:
    got = [[r["seed"], r["numerator"], r["denominator"]] for r in rows]
    if got != ranking:
        return f"ranking {got[:2]}... differs from reference {ranking[:2]}..."
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        return "ranks are not 1..k"
    return None


def check_count(rows: list[dict], expected: str) -> str | None:
    if len(rows) != 1 or rows[0]["count"] != expected:
        return f"count {[r['count'] for r in rows]}, reference {expected}"
    return None


def valid_alignment(text: str, n: int, score: int | None) -> bool:
    """Prefix-score scan: length n, total > 0 (== score when fixed), and every
    proper prefix strictly inside (0, total)."""
    if len(text) != n:
        return False
    try:
        walk = list(accumulate(map(_STEP.__getitem__, text)))
    except KeyError:
        return False
    total = walk[-1]
    if total <= 0 or (score is not None and total != score):
        return False
    inner = walk[:-1]
    return not inner or (min(inner) > 0 and max(inner) < total)


def check_samples(rows: list[dict], n: int, score: int | None, samples: int) -> str | None:
    if len(rows) != samples:
        return f"{len(rows)} samples, requested {samples}"
    for i, row in enumerate(rows):
        if not valid_alignment(row["alignment"], n, score):
            return f"sample {i} {row['alignment']!r} is not a homogeneous length-{n} alignment" \
                   f" of score {'any' if score is None else score}"
    return None


def check_mc(rows: list[dict], reference: str, samples: int) -> str | None:
    if len(rows) != 1:
        return f"{len(rows)} rows, expected 1"
    num, den = map(int, reference.split("/"))
    hits, stderr = int(rows[0]["hits"]), float(rows[0]["stderr"])
    if int(rows[0]["samples"]) != samples or not 0 <= hits <= samples:
        return f"{hits} hits of {rows[0]['samples']} samples, requested {samples}"
    if abs(hits / samples - num / den) > 5 * stderr:
        return f"estimate {hits}/{samples} is more than 5 stderr ({stderr}) from {num}/{den}"
    return None
