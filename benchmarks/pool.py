"""The fixed input pool the benchmark workloads draw from.

Every query here has a committed exact answer in ``refs.json``, written by
``build_refs.py``. A workload seed only picks entries from this pool and
orders them; it never invents inputs, so every output can be checked
exactly.
"""

MATCH, MISMATCH = 1, 3  # the CLI's default scoring scheme

# Weight 9-11, span <= 18. All eight have scanner automata of 240-340 states,
# so a call in one (length, score, model) cell costs about the same whatever
# pattern the seed picks; their (128, 32) all-model calls are within ~10% of
# each other. That keeps per-run medians and the tail steady across seeds.
PATTERNS = (
    "1010110111010001",
    "1011110100101001",
    "110001010111101",
    "1011110001101011",
    "1111010001101011",
    "1010111100001111",
    "11010110111010011",
    "11111010001010111",
)

MODELS = ("homogeneous", "all")
CELLS = ((40, 12), (64, 16), (128, 32))  # (length, score)

# The (40, 12) cell is also queried with each pattern reversed. A seed and its
# mirror have the same hit probability, which is what lets the optimizer skip
# mirrors; it also weights the mix so that the median call is a (40, 12)
# all-model call rather than a boundary between two cost clusters.
MIRROR_CELL = (40, 12)

# One multi-occurrence strategy per pattern: K = 2 or 3 occurrences with an
# overlap of 0, span // 2 or span - 1 letters, each at a fixed one of the two
# smaller cells and a fixed model, two per (cell, model). Every round runs
# all of them, so each round has the same cost profile; they stay away from
# the largest cell so the (128, 32) all-model calls set the tail.
_MULTI_SLOTS = tuple((cell, model) for cell in ((40, 12), (64, 16)) for model in MODELS)
MULTI = tuple(
    (p, 2 + i % 2, (0, len(p) // 2, len(p) - 1)[i % 3], *_MULTI_SLOTS[i % 4][0],
     _MULTI_SLOTS[i % 4][1])
    for i, p in enumerate(PATTERNS)
)

CURVE_RANGE = (16, 64)
CURVE_SCORES = (12, 16)
CURVES_PER_ROUND = 2

# length 12 cannot reach score 40 under (1, 3); the CLI must exit with code 3
INFEASIBLE = (PATTERNS[0], 12, 40)

OPTIMIZE = {"weight": 9, "max_span": 14, "length": 40, "score": 12}
OPTIMIZE_THREADS = 2

# Sizes that give each command kind a real share of a sampling round (about
# 40% fixed-score generate, 15-20% each for the free-score generate and the
# two mc runs, 20-25% for the two counts), so a change to any one kind moves
# the round time. A round takes about 11 s with its checks, so three fit in a
# 35 s run even when the host runs 15% faster or slower.
GENERATE_FIXED = {"length": 40, "score": 12, "samples": 100_000}
GENERATE_FREE = {"length": 64, "samples": 8_000}
MC = {"length": 40, "score": 12, "samples": 32_000}
COUNT_FREE_LENGTH = 200  # the length count_free_s reports
COUNT_FREE_LENGTHS = (COUNT_FREE_LENGTH, 220)
# leading rows of the multi-worker fixed-score generate, regenerated with one worker
WORKER_SLICE = 500

# Small commands that reach every layer. A traced run uses them for a layer
# its workload does not reach, so every per-layer metric has a value.
PROBE_OPTIMIZE = {"weight": 9, "max_span": 11, "length": 40, "score": 12}
PROBE_COUNT_FREE_LENGTH = 60
PROBE_CURVE_RANGE = (16, 40)
PROBE_SAMPLES = 2_000

# Passes outside the CLI that a traced run times directly.
SEARCH_PASS_MODEL = "homogeneous"  # the OPTIMIZE spec, threads=1 against threads=2
SAMPLING_PASS_SAMPLES = 20_000  # sample_fixed at the GENERATE_FIXED cell, 1 against 2 workers
SPAWN_PASS_INDICES = GENERATE_FIXED["samples"]


def query_key(pattern: str, occurrences: int, overlap: int, length: int, score: int,
              model: str) -> str:
    return f"{pattern}:{occurrences}:{overlap}:{length}:{score}:{model}"


def curve_key(pattern: str, score: int) -> str:
    return f"{pattern}:{score}"


def optimize_key(spec: dict, model: str) -> str:
    return f"w{spec['weight']}:s{spec['max_span']}:n{spec['length']}:S{spec['score']}:{model}"


def sensitivity_queries() -> list[tuple[str, int, int, int, int, str]]:
    """Every sensitivity query a workload or the probe can send."""
    out = []
    for pattern in PATTERNS:
        for n, s in CELLS:
            for model in MODELS:
                out.append((pattern, 1, 0, n, s, model))
        for model in MODELS:
            out.append((pattern[::-1], 1, 0, *MIRROR_CELL, model))
    return out + list(MULTI)
