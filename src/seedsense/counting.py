"""Exact counts of score-constrained walks, by one lane-packed sweep.

Every homogeneous count, sampler step and hit count comes from
``lane_sweep``. It runs over prefixes left to right, one layer per length,
with one Python int per state of a scanner automaton; with a single state
there is no scanner and the sweep counts the whole population. A prefix of length i with q mismatches scores
i*s - q*(s+p), so at each length the mismatch count fixes the score, and a
state's int packs its prefix counts in fixed-width lanes, one per mismatch
count (Kronecker substitution: Schönhage 1982; Harvey 2009). A lane is as
wide as the largest count it can hold, the binomial bound of ``lane_width``:
86 bits at length 128 and score 32 under (1, 3), not 129. A match adds a
state's int to its successor's unchanged, a mismatch adds it shifted up one
lane, so one big-int add moves every prefix score of a state at once. After
each step a window keeps only the lanes whose score can still end on the
target by the horizon. That window is the only difference between the two
models: the homogeneous one also clamps it to the open band (0, score),
where a homogeneous walk stays until its last step. The windows depend on
nothing but the scheme, score, horizon and model, so a sweep reads them from
a schedule, ``_windows``, memoized for the last such key: all the sweeps of
one ``optimize`` share one.

Only this module reads the lanes, by two readers. ``profile_counts`` reads
the score's lane at each requested length: in the accept state it is the
hits, summed over all states the population. ``sensitivity`` calls it with
a scanner, ``count_homogeneous`` without one, the single state accepting.
``class_steps`` reads one score class's windowed layers as the sampler's
completion counts (see ``sampling``).

``CountTableD`` counts the same walks backward, as suffixes, in a dense
table. Its last reader is ``curve``, which filters empty lengths with it,
although the profile sweep already finds every population. It stays while
``benchmarks/tracing.py`` wraps ``cli.CountTableD`` by name to time it.

Counts are exact Python integers; they outgrow 64 bits around length 70 for
dense schemes.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import islice
from typing import Iterator

from .alignments import ScoringScheme

HOMOGENEOUS = "homogeneous"
UNIFORM = "all"
MODELS = (HOMOGENEOUS, UNIFORM)


def check_model(model: str, score: int) -> None:
    """Reject an unknown model, and a homogeneous score below 1: a homogeneous
    walk stays inside the open band (0, score) until it ends on the score."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {MODELS}")
    if model == HOMOGENEOUS and score < 1:
        raise ValueError("homogeneous alignments require score >= 1")


class InfeasibleScore(ValueError):
    """No alignment of the requested length and score exists under the scheme."""

    @classmethod
    def empty(cls, scheme: ScoringScheme, n: int, score: int | None,
              model: str) -> InfeasibleScore:
        """The error for an empty population of the model, worded by model."""
        if model == HOMOGENEOUS:
            return cls(f"no homogeneous alignment of length {n} has score {score} under {scheme}")
        return cls(f"no alignments of length {n} and score {score} under {scheme}")


def mismatch_count(scheme: ScoringScheme, n: int, score: int) -> int | None:
    """The unique q with (n - q)*s - q*p = score and 0 <= q <= n, if any."""
    if n < 1:
        raise ValueError("length must be >= 1")
    s, p = scheme.match_score, scheme.mismatch_penalty
    m, rem = divmod(score + n * p, s + p)
    if rem or not 0 <= m <= n:
        return None
    return n - m


class CountTableD:
    """Counts of length-k walk suffixes from ordinate y culminating exactly at `score`.

    The start and end points are corners; every intermediate ordinate must lie
    strictly inside (0, score). For k > 1 the two branches are guarded
    independently: a match step is allowed iff it stays below the target, a
    mismatch step iff it stays positive. A one-step suffix exists iff the
    match step lands exactly on the target.
    """

    def __init__(self, scheme: ScoringScheme, score: int, horizon: int):
        if score < 1:
            raise ValueError("target score must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.scheme = scheme
        self.score = score
        self.horizon = horizon
        s, p = scheme.match_score, scheme.mismatch_penalty
        rows = [[0] * score for _ in range(horizon + 1)]
        if score >= s:
            rows[1][score - s] = 1
        for k in range(2, horizon + 1):
            prev = rows[k - 1]
            row = rows[k]
            for y in range(score):
                c = prev[y + s] if y + s < score else 0
                if y > p:
                    c += prev[y - p]
                row[y] = c
        self._rows = rows

    def count(self, y: int, k: int) -> int:
        if not 0 <= k <= self.horizon:
            raise ValueError(f"steps {k} outside table horizon {self.horizon}")
        if k == 0:
            return 1 if y == self.score else 0
        if y < 0 or y >= self.score:
            return 0
        return self._rows[k][y]


def positive_scores(scheme: ScoringScheme, n: int) -> range:
    """Every positive total score an alignment of length n can have, ascending."""
    if n < 1:
        raise ValueError("length must be >= 1")
    s, p = scheme.match_score, scheme.mismatch_penalty
    # m matches give m*s - (n-m)*p; the fewest that stay positive is m = floor(n*p/(s+p)) + 1
    low = n * p // (s + p) + 1
    return range(low * (s + p) - n * p, n * s + 1, s + p)


def lane_width(scheme: ScoringScheme, score: int, horizon: int) -> int:
    """Bits per lane of a ``lane_sweep`` to `score` at `horizon`.

    A prefix of length i with q mismatches can still end on the score only if
    q <= qcap = (horizon*s - score) // (s+p), so every lane the window keeps,
    and every lane a reader takes, counts at most C(i, q) <= C(horizon,
    min(qcap, horizon // 2)) prefixes summed over all states. A lane above
    qcap is the top lane of its int and is dropped by the next window, so its
    carry reaches no kept lane.
    """
    s, p = scheme.match_score, scheme.mismatch_penalty
    qcap = min(horizon, max(0, (horizon * s - score) // (s + p)))
    return max(1, math.comb(horizon, min(qcap, horizon // 2)).bit_length())


@lru_cache(maxsize=1)
def _windows(scheme: ScoringScheme, score: int, horizon: int,
             model: str) -> tuple[tuple[int, int, int, int, int], ...]:
    """The window schedule of a ``lane_sweep``: one (shift, keep, base, low, high) per
    length 1..horizon.

    Reading the layer before it, the sweep shifts a state's int down `shift`
    bits and masks it with `keep`: the previous window, which moves its
    lowest kept lane to lane 0. The layer it builds starts at mismatch count
    `base`, and its window keeps low..high. The schedule depends on nothing
    but the arguments, so it is memoized for the last key only: every sweep
    of a search shares one key, and a larger cache would let repeated calls
    in one process skip work that a new process pays for.
    """
    s, p = scheme.match_score, scheme.mismatch_penalty
    per_mismatch = s + p
    width = lane_width(scheme, score, horizon)
    schedule = []
    base, shift, keep = 0, 0, -1
    for i in range(1, horizon + 1):
        # keep the prefix scores that can still end on the score by the horizon
        remaining = horizon - i
        lo, hi = score - remaining * s, score + remaining * p
        if model == HOMOGENEOUS:
            # a homogeneous prefix stays inside the open band (0, score)
            lo, hi = max(lo, 1), min(hi, score - 1)
        # the same window in mismatch counts, ceil((i*s - hi) / (s+p)) through
        # floor((i*s - lo) / (s+p)); lane qlo becomes the new base
        qlo = max(base, -((hi - i * s) // per_mismatch))
        qhi = min(i, (i * s - lo) // per_mismatch)
        schedule.append((shift, keep, base, qlo, qhi))
        shift = (qlo - base) * width
        keep = (1 << (qhi - qlo + 1) * width) - 1 if qhi >= qlo else 0
        base = qlo
    return tuple(schedule)


def lane_sweep(step0: list[int], step1: list[int], start: int, scheme: ScoringScheme,
               score: int, horizon: int, model: str) -> Iterator[tuple[list[int], int, int, int]]:
    """Prefix counts by state and mismatch count, one layer per length 0..horizon.

    `step0` and `step1` map each state to its successor on a mismatch and on
    a match; ``[0], [0], 0`` is the sweep without a scanner. Each yield is
    ``(layer, base, low, high)``: lane j of ``layer[state]``, ``lane_width``
    bits wide, counts the state's prefixes with base + j mismatches, before
    the window; low..high are the mismatch counts the window keeps, those
    whose score can still end on `score` at the horizon (inside the open band
    (0, score) when homogeneous). The empty start prefix is kept as it is.

    The windows come from ``_windows``, computed once for a run of sweeps
    that share one (scheme, score, horizon, model). A window that keeps the
    previous layer's lowest lane shifts nothing, and the step that applies it
    only masks.
    """
    # summed over all states no kept lane outgrows width bits (see lane_width), so
    # none carries into the next lane
    width = lane_width(scheme, score, horizon)
    size = len(step0)
    layer = [0] * size
    layer[start] = 1
    yield layer, 0, 0, 0
    for shift, keep, base, low, high in _windows(scheme, score, horizon, model):
        nxt = [0] * size
        # the previous step's window, applied as the layer is read. The shift-free
        # copy of the loop pays: on a 2-vCPU VM, one loop that always shifts made a
        # serial find_optimal of both models (weight 9, span <= 14, (40, 12)) 6-7%
        # slower and 24 hit_probability_profile queries 11-12% slower, in each of
        # 14 alternating process pairs (the minimum of 5 runs each)
        if shift:
            for to0, to1, v in zip(step0, step1, layer):
                if v:
                    v = (v >> shift) & keep
                    if v:
                        nxt[to1] += v
                        nxt[to0] += v << width
        else:
            for to0, to1, v in zip(step0, step1, layer):
                if v:
                    v &= keep
                    if v:
                        nxt[to1] += v
                        nxt[to0] += v << width
        yield nxt, base, low, high
        layer = nxt


def lane(v: int, q: int, base: int, width: int) -> int:
    """The count in lane q of a layer int whose lanes are `width` bits wide and start at `base`."""
    return (v >> (q - base) * width) & ((1 << width) - 1) if q >= base else 0


def profile_counts(step0: list[int], step1: list[int], start: int, accept: int,
                   scheme: ScoringScheme, score: int, lengths: list[int],
                   model: str) -> dict[int, tuple[int, int]]:
    """(accept-state count, all-state count) of the score at each requested length,
    from one sweep to the longest, each read before its length's window excludes the
    score (when homogeneous); a length without the score counts (0, 0)."""
    horizon = max(lengths)
    width = lane_width(scheme, score, horizon)
    sweep = lane_sweep(step0, step1, start, scheme, score, horizon, model)
    out = {}
    at = -1
    for n in sorted(set(lengths)):
        # skip to layer n without touching the layers between
        layer, base, _, _ = next(islice(sweep, n - at - 1, None))
        at = n
        q = mismatch_count(scheme, n, score)
        out[n] = (0, 0) if q is None else (lane(layer[accept], q, base, width),
                                            lane(sum(layer), q, base, width))
    return out


def class_steps(scheme: ScoringScheme, n: int, score: int,
                model: str) -> tuple[int, list[list[int]]] | None:
    """One sampler class, (size, steps), or None when no walk of the model has the score.

    ``steps[j][u]`` is the number of the class's members that, with u
    mismatches placed before step j, take a match there. Reversal maps the
    walks of a class onto themselves, so those completions are the class's
    length-(n-j-1) prefixes with the q - u mismatches left: lane q - u of
    the scanner-less sweep's windowed layer at that length. The window
    matters: a match onto the score with letters left completes nothing.
    """
    q = mismatch_count(scheme, n, score)
    if q is None or (model == HOMOGENEOUS and score < 1):
        return None
    width = lane_width(scheme, score, n)
    rows = []
    for layer, base, low, high in lane_sweep([0], [0], 0, scheme, score, n, model):
        v = layer[0]
        row = [0] * (q + 1)
        for m in range(low, high + 1):
            row[q - m] = lane(v, m, base, width)
        rows.append(row)
    size = lane(v, q, base, width)
    # rows[k] holds the windowed layer of length k; step j reads length n - j - 1
    return (size, rows[n - 1::-1]) if size else None


def count_homogeneous(scheme: ScoringScheme, n: int, score: int | None = None) -> int:
    """Exact number of homogeneous alignments of length n (and score, when fixed).

    Infeasible (n, score) combinations count 0 rather than raising, so sums
    over scores stay clean.
    """
    if n < 1:
        raise ValueError("length must be >= 1")
    if score is None:
        return sum(count_homogeneous(scheme, n, t) for t in positive_scores(scheme, n))
    if score < 1:
        return 0
    return profile_counts([0], [0], 0, 0, scheme, score, [n], HOMOGENEOUS)[n][0]


def count_unconstrained(scheme: ScoringScheme, n: int, score: int) -> int:
    """Number of all binary sequences of length n with the given score."""
    q = mismatch_count(scheme, n, score)
    return 0 if q is None else math.comb(n, q)
