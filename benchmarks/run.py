"""End-to-end and per-layer benchmark of the seedsense command line.

    python3 benchmarks/run.py --workload sensitivity-mix --seed 1 --seconds 35 --trace 0

Run from the repository root. One closed-loop caller in this process drives
``seedsense.cli.run(argv)`` with ``--format csv --output <file>``, sending the
next command only after the previous one returned, and checks every output.
Workloads repeat whole rounds of commands for about --seconds.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
rounds untraced and traced, then a probe and three direct passes, and reports
the per-layer metrics. See README.md in this directory for the workloads,
the metrics and what each layer metric is expected to move.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
when every check passed, 1 when one failed, and 2 when the package source
is missing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchrun"
# set-up is timed in three blocks of interpreters: before the first round,
# after it, and after the last, so that its median spans the whole run
SETUP_BLOCK = 7
# the tail is the highest percentile with at least this many samples beyond it
TAIL_BEYOND = 10

if not (SRC / "seedsense" / "__init__.py").is_file():
    print(f"benchmark: no package source at {SRC / 'seedsense'}; run from a checkout",
          file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import seedsense.cli  # noqa: E402
from seedsense.alignments import ScoringScheme  # noqa: E402
from seedsense.sampling import RandomStream, sample_fixed  # noqa: E402
from seedsense.search import SearchSpec, find_optimal  # noqa: E402

import checks  # noqa: E402
import pool  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

if Path(seedsense.cli.__file__).resolve().parents[1] != SRC.resolve():
    print(f"benchmark: imported seedsense from {seedsense.cli.__file__}, not {SRC}",
          file=sys.stderr)
    sys.exit(2)

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
WORKERS = max(1, min(2, NPROC or 1))
SCHEME = ScoringScheme(pool.MATCH, pool.MISMATCH)
REFS = json.loads((BENCH_DIR / "refs.json").read_text())


@dataclass
class Op:
    """One CLI command with its check. Untimed ops are checked but left out of the metrics."""

    kind: str
    argv: list[str]
    check: Callable[[list[dict]], str | None] | None
    work: int = 0  # rows, candidates or samples produced
    timed: bool = True
    exit_code: int = 0


def _sensitivity_op(pattern: str, k: int, w: int, n: int, s: int, model: str) -> Op:
    ref = REFS["sensitivity"][pool.query_key(pattern, k, w, n, s, model)]
    argv = ["sensitivity", "--seed", pattern, "--length", str(n), "--score", str(s),
            "--model", model]
    if k > 1:
        argv += ["--occurrences", str(k), "--max-overlap", str(w)]
    return Op("sensitivity", argv,
              partial(checks.check_sensitivity, ref=ref, pattern=pattern, occurrences=k,
                      overlap=w, n=n, score=s, model=model), work=1)


def _curve_op(pattern: str, score: int, lo: int, hi: int) -> Op:
    ref = REFS["curve"][pool.curve_key(pattern, score)]
    rows = sum(str(n) in ref[m] for n in range(lo, hi + 1) for m in ref)
    return Op("curve", ["curve", "--seed", pattern, "--score", str(score), "--length-range",
                        f"{lo}:{hi}", "--model", "both"],
              partial(checks.check_curve, ref=ref, pattern=pattern, score=score,
                      lengths=range(lo, hi + 1)), work=rows)


def _optimize_op(spec: dict, model: str) -> Op:
    candidates = sum(math.comb(span - 2, spec["weight"] - 2)
                     for span in range(spec["weight"], spec["max_span"] + 1))
    argv = ["optimize", "--weight", str(spec["weight"]), "--max-span", str(spec["max_span"]),
            "--length", str(spec["length"]), "--score", str(spec["score"]), "--model", model,
            "--threads", str(min(pool.OPTIMIZE_THREADS, WORKERS))]
    ranking = REFS["optimize"][pool.optimize_key(spec, model)]
    return Op("optimize", argv, partial(checks.check_optimize, ranking=ranking), work=candidates)


def _count_op(n: int) -> Op:
    return Op("count", ["count", "--length", str(n)],
              partial(checks.check_count, expected=REFS["count"][str(n)]))


def _generate_ops(n: int, score: int | None, samples: int, rng_seed: int,
                  threads: int, slice_rows: int = 0) -> list[Op]:
    """A generate command, plus (with slice_rows) a one-worker rerun of its
    leading rows that must match them exactly."""
    argv = ["generate", "--length", str(n), "--samples", str(samples), "--rng-seed",
            str(rng_seed), "--threads", str(threads)]
    if score is not None:
        argv += ["--score", str(score)]
    kept: list[str] = []

    def check(rows: list[dict]) -> str | None:
        kept[:] = [r["alignment"] for r in rows[:slice_rows]]
        return checks.check_samples(rows, n, score, samples)

    kind = "generate_free" if score is None else "generate_fixed"
    ops = [Op(kind, argv, check, work=samples)]
    if slice_rows:
        def same_slice(rows: list[dict]) -> str | None:
            if [r["alignment"] for r in rows] != kept:
                return f"first {slice_rows} samples differ between 1 and {threads} workers"
            return None
        slice_argv = argv.copy()
        slice_argv[slice_argv.index("--samples") + 1] = str(slice_rows)
        slice_argv[slice_argv.index("--threads") + 1] = "1"
        ops.append(Op("worker_slice", slice_argv, same_slice, timed=False))
    return ops


def _mc_op(pattern: str, model: str, n: int, s: int, samples: int, rng_seed: int) -> Op:
    ref = REFS["sensitivity"][pool.query_key(pattern, 1, 0, n, s, model)]
    return Op("mc", ["mc", "--seed", pattern, "--length", str(n), "--score", str(s), "--model",
                     model, "--samples", str(samples), "--rng-seed", str(rng_seed)],
              partial(checks.check_mc, reference=ref, samples=samples), work=samples)


def _infeasible_op() -> Op:
    pattern, n, s = pool.INFEASIBLE
    return Op("infeasible", ["sensitivity", "--seed", pattern, "--length", str(n), "--score",
                             str(s)], None, timed=False, exit_code=3)


def sensitivity_mix_round(rng: random.Random) -> list[Op]:
    ops = []
    for pattern in pool.PATTERNS:
        for (n, s) in pool.CELLS:
            for model in pool.MODELS:
                ops.append(_sensitivity_op(pattern, 1, 0, n, s, model))
        for model in pool.MODELS:
            ops.append(_sensitivity_op(pattern[::-1], 1, 0, *pool.MIRROR_CELL, model))
    # one call in nine
    ops += [_sensitivity_op(*query) for query in pool.MULTI]
    curves = [(p, s) for p in pool.PATTERNS for s in pool.CURVE_SCORES]
    for pattern, score in rng.sample(curves, pool.CURVES_PER_ROUND):
        ops.append(_curve_op(pattern, score, *pool.CURVE_RANGE))
    rng.shuffle(ops)
    return ops


def seed_search_round(rng: random.Random) -> list[Op]:
    return [_optimize_op(pool.OPTIMIZE, model)
            for model in rng.sample(pool.MODELS, len(pool.MODELS))]


def sampling_round(rng: random.Random) -> list[Op]:
    # a fixed order: the peak RSS of the process and of its forked workers
    # depends on which command ran before the 100k-sample generate
    fixed, free, mc = pool.GENERATE_FIXED, pool.GENERATE_FREE, pool.MC
    ops = _generate_ops(fixed["length"], fixed["score"], fixed["samples"], rng.getrandbits(64),
                        WORKERS, slice_rows=pool.WORKER_SLICE)
    ops += _generate_ops(free["length"], None, free["samples"], rng.getrandbits(64), 1)
    for model in pool.MODELS:
        ops.append(_mc_op(rng.choice(pool.PATTERNS), model, mc["length"], mc["score"],
                          mc["samples"], rng.getrandbits(64)))
    ops += [_count_op(n) for n in pool.COUNT_FREE_LENGTHS]
    return ops


def probe_ops() -> list[Op]:
    pattern = pool.PATTERNS[0]
    n, s = pool.MIRROR_CELL
    return [
        _sensitivity_op(pattern, 1, 0, n, s, "homogeneous"),
        _sensitivity_op(pattern, 1, 0, n, s, "all"),
        _sensitivity_op(*pool.MULTI[0]),
        _curve_op(pattern, s, *pool.PROBE_CURVE_RANGE),
        _optimize_op(pool.PROBE_OPTIMIZE, "homogeneous"),
        _count_op(pool.PROBE_COUNT_FREE_LENGTH),
        *_generate_ops(n, s, pool.PROBE_SAMPLES, 1, 1),
        *_generate_ops(n, None, pool.PROBE_SAMPLES // 4, 2, 1),
        _mc_op(pattern, "homogeneous", n, s, pool.PROBE_SAMPLES, 3),
    ]


# (function making a round, kinds whose latency p50_ms and tail_ms describe, whether one
# latency sample is a whole round). On seed-search and sampling a round is one
# fixed batch: a ranking under each model, or one command of each sampling
# kind. Their commands differ in cost severalfold and a round holds only two
# or five, so a median over single commands would fall between cost clusters.
WORKLOADS = {
    "sensitivity-mix": (sensitivity_mix_round, {"sensitivity"}, False),
    "seed-search": (seed_search_round, {"optimize"}, True),
    "sampling": (sampling_round, {"generate_fixed", "generate_free", "mc", "count"}, True),
}


@dataclass
class Result:
    op: Op
    seconds: float
    error: str | None
    round: int | None = None


class Runner:
    """Executes ops in a closed loop and keeps every outcome."""

    def __init__(self) -> None:
        self.results: list[Result] = []
        self.round: int | None = None
        self._output = OUT / "command.csv"

    def execute(self, op: Op, tracer: Tracer | None = None) -> Result:
        self._output.unlink(missing_ok=True)
        argv = op.argv + ["--format", "csv", "--output", str(self._output)]
        if tracer is None:
            started = time.perf_counter()
            code = seedsense.cli.run(argv)
            seconds = time.perf_counter() - started
        else:
            tracer.op = len(self.results)
            with tracer.span("cli.run", "cli", kind=op.kind, timed=op.timed) as record:
                code = seedsense.cli.run(argv)
            seconds = record["end"] - record["start"]
        error = None
        if code != op.exit_code:
            error = f"exit code {code}, expected {op.exit_code}"
        elif op.check is not None:
            with open(self._output, newline="", encoding="utf-8") as handle:
                error = op.check(list(csv.DictReader(handle)))
        result = Result(op, seconds, error, self.round)
        self.results.append(result)
        if error:
            print(f"FAILED {' '.join(op.argv)}: {error}", file=sys.stderr)
        return result

    def record(self, kind: str, seconds: float, error: str | None) -> None:
        self.results.append(Result(Op(kind, [], None, timed=False), seconds, error))

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.results)


def measure_setup(runner: Runner) -> list[float]:
    """Times from a fresh interpreter to the first completed trivial command."""
    target = OUT / "setup.txt"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from seedsense.cli import run; "
            "sys.exit(run(sys.argv[2:]))")
    argv = [sys.executable, "-c", code, str(SRC), "count", "--length", "5", "--score", "3",
            "--match", "1", "--mismatch", "1", "--output", str(target)]
    times = []
    for _ in range(SETUP_BLOCK):
        target.unlink(missing_ok=True)
        started = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - started)
        ok = proc.returncode == 0 and target.is_file() and target.read_text() == "1\n"
        runner.record("setup", times[-1], None if ok else f"trivial command: {proc.stderr!r}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it;
    the maximum when there are too few samples for that to lie above the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND + 1:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def run_rounds(runner: Runner, rounds: list[list[Op]], tracer: Tracer | None = None) -> float:
    """Runs the rounds; returns the seconds spent inside timed CLI commands."""
    spent = 0.0
    for ops in rounds:
        for op in ops:
            result = runner.execute(op, tracer)
            if op.timed:
                spent += result.seconds
    return spent


def schedule(workload: str, seed: int, seconds: float, runner: Runner,
             after_first_round: Callable[[], object] = lambda: None
             ) -> tuple[list[list[Op]], float]:
    """Runs whole rounds for about `seconds`: another round starts only while the
    time used plus half a mean round is below `seconds`. Returns the rounds run
    and the peak RSS in MB at the end of the first round: later rounds fork
    their workers from a parent heap that grows with the round count, so the
    peak over the whole run would depend on how many rounds fit.
    `after_first_round` runs once, after that reading; its time does not count
    towards `seconds`."""
    build = WORKLOADS[workload][0]
    rounds = []
    started = time.perf_counter()
    while True:
        ops = build(random.Random(seed * 1_000_003 + len(rounds)))
        if not rounds:
            ops.insert(random.Random(seed).randrange(len(ops) + 1), _infeasible_op())
        runner.round = len(rounds)
        run_rounds(runner, [ops])
        runner.round = None
        if not rounds:
            first_round_rss = peak_rss_mb()
            paused = time.perf_counter()
            after_first_round()
            started += time.perf_counter() - paused
        rounds.append(ops)
        used = time.perf_counter() - started
        if used + used / len(rounds) / 2 >= seconds:
            return rounds, first_round_rss


def end_to_end(workload: str, runner: Runner, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """The metrics BENCHMARK.json declares, and the per-command figures behind them."""
    timed = [r for r in runner.results if r.op.timed]
    _, latency_kinds, per_round = WORKLOADS[workload]
    per_request: dict[int, float] = {}
    for i, r in enumerate(timed):
        if r.op.kind in latency_kinds:
            key = r.round if per_round else i
            per_request[key] = per_request.get(key, 0.0) + r.seconds
    latencies = list(per_request.values())
    tail_s, tail_pct = tail(latencies)
    spent = sum(r.seconds for r in timed)

    def per_s(kind: str) -> float | None:
        rs = [r for r in timed if r.op.kind == kind]
        return sum(r.op.work for r in rs) / sum(r.seconds for r in rs) if rs else None

    def median_s(kind: str, argv: list[str] | None = None) -> float | None:
        rs = [r.seconds for r in timed if r.op.kind == kind and argv in (None, r.op.argv)]
        return statistics.median(rs) if rs else None

    sens = [r.seconds for r in timed if r.op.kind == "sensitivity"]
    named = {
        "setup_s": (setup_s, "s"),
        "sensitivity_p50_ms": (statistics.median(sens) * 1e3 if sens else None, "ms"),
        "sensitivity_tail_ms": (tail(sens)[0] * 1e3 if sens else None, "ms"),
        "curve_s": (median_s("curve"), "s"),
        "optimize_candidates_per_s": (per_s("optimize"), "1/s"),
        "generate_fixed_samples_per_s": (per_s("generate_fixed"), "1/s"),
        "generate_free_samples_per_s": (per_s("generate_free"), "1/s"),
        "mc_samples_per_s": (per_s("mc"), "1/s"),
        "count_free_s": (median_s("count", _count_op(pool.COUNT_FREE_LENGTH).argv), "s"),
        "failed_ratio": (runner.failed / len(runner.results), f"of {len(runner.results)}"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "tail_ms": {"value": tail_s * 1e3, "unit": "ms"},
        "work_per_s": {"value": sum(r.op.work for r in timed) / spent, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    shares = {}
    for r in timed:
        shares[r.op.kind] = shares.get(r.op.kind, 0.0) + r.seconds / spent
    detail = {"latency_samples": len(latencies), "tail_percentile": tail_pct,
              "sensitivity_samples": len(sens), "named": named, "time_shares": shares}
    return metrics, detail


def direct_passes(runner: Runner, tracer: Tracer, seed: int) -> dict:
    """The search and sampling worker-scaling passes and the RandomStream.spawn loop."""
    out = {}
    spec = SearchSpec(pool.OPTIMIZE["weight"], pool.OPTIMIZE["max_span"], SCHEME,
                      pool.OPTIMIZE["length"], pool.OPTIMIZE["score"], pool.SEARCH_PASS_MODEL)
    ranking = REFS["optimize"][pool.optimize_key(pool.OPTIMIZE, pool.SEARCH_PASS_MODEL)]
    threads = min(pool.OPTIMIZE_THREADS, WORKERS)
    # both timed passes run untraced; a third, traced serial pass counts and
    # times the candidate evaluations
    timings = {}
    for workers in (1, threads, None):
        started = time.perf_counter()
        if workers is None:
            tracer.phase = "search-pass"
            with tracer.installed():
                ranked = find_optimal(spec, threads=1)
        else:
            ranked = find_optimal(spec, threads=workers)
        seconds = time.perf_counter() - started
        timings[workers] = seconds
        got = [[e.seed.pattern, str(e.numerator), str(e.denominator)] for e in ranked.entries]
        runner.record("search_pass", seconds, None if got == ranking else "ranking differs")
    evaluated = [s for s in tracer.spans if s["phase"] == "search-pass"
                 and s["name"] == "search->sensitivity.hit_probability_profile"]
    out["search.candidates"] = ranked.candidate_count
    out["search.evaluated"] = len(evaluated)
    out["search.evaluated_ratio"] = len(evaluated) / ranked.candidate_count
    out["search.serial_candidate_ms"] = statistics.fmean(
        s["end"] - s["start"] for s in evaluated) * 1e3
    out["search.parallel_efficiency"] = timings[1] / (threads * timings[threads])
    out["search.pass_seconds"] = {1: timings[1], threads: timings[threads],
                                  "traced 1": timings[None]}

    n, s, count = pool.GENERATE_FIXED["length"], pool.GENERATE_FIXED["score"], \
        pool.SAMPLING_PASS_SAMPLES
    drawn, timings = {}, {}
    for workers in (1, WORKERS):
        started = time.perf_counter()
        drawn[workers] = sample_fixed(SCHEME, n, s, count, RandomStream(seed), workers=workers)
        timings[workers] = time.perf_counter() - started
    error = None if drawn[1] == drawn[WORKERS] else "samples differ between worker counts"
    if error is None and not all(checks.valid_alignment(str(a), n, s) for a in drawn[1]):
        error = "invalid sample"
    runner.record("sampling_pass", timings[1] + timings[WORKERS], error)
    out["sampling.parallel_efficiency"] = timings[1] / (WORKERS * timings[WORKERS])
    out["sampling.pass_seconds"] = timings

    stream = RandomStream(seed)
    started = time.perf_counter()
    for i in range(pool.SPAWN_PASS_INDICES):
        stream.spawn(i)
    out["sampling.spawn_us"] = (time.perf_counter() - started) / pool.SPAWN_PASS_INDICES * 1e6
    return out


def per_layer(workload: str, tracer: Tracer, rounds: int, untraced_s: float, traced_s: float,
              passes: dict) -> tuple[dict, dict]:
    """The per-layer metrics and where each came from. A metric is taken from the
    workload's traced rounds, or from the probe when the workload never reaches
    that call. On seed-search, optimize evaluates its candidates in worker
    processes the tracer cannot see, so the sensitivity self time there comes
    from the traced serial search pass."""
    # checks that are not timed (the infeasible request, the worker slice) are left out
    untimed = {s["op"] for s in tracer.spans if s["name"] == "cli.run" and not s["timed"]}
    work = [s for s in tracer.spans if s["phase"] == "workload" and s["op"] not in untimed]
    probe = [s for s in tracer.spans if s["phase"] == "probe" and s["op"] not in untimed]
    metrics: dict[str, dict] = {}
    sources: dict[str, str] = {}

    def put(name: str, value: float, unit: str, source: str) -> None:
        metrics[name] = {"value": value, "unit": unit}
        sources[name] = source

    def pick(pred) -> tuple[list[dict], str]:
        chosen = [s for s in work if pred(s)]
        return (chosen, "workload") if chosen else ([s for s in probe if pred(s)], "probe")

    def dur(s: dict) -> float:
        return s["end"] - s["start"]

    def named(name: str):
        return lambda s: s["name"] == name

    def single(model: str | None, multi: bool):
        return lambda s: (s["name"] == "cli->sensitivity.hit_probability_profile"
                          and s["lengths"] == 1 and (s["occurrences"] > 1) == multi
                          and (model is None or s["model"] == model))

    def median_ms(name: str, pred) -> None:
        spans, source = pick(pred)
        put(name, statistics.median(map(dur, spans)) * 1e3, "ms", source)

    def us_per_sample(name: str, pred) -> None:
        spans, source = pick(pred)
        put(name, sum(map(dur, spans)) / sum(s["samples"] for s in spans) * 1e6, "us", source)

    median_ms("sensitivity.homogeneous_ms", single("homogeneous", False))
    median_ms("sensitivity.all_ms", single("all", False))
    median_ms("sensitivity.multi_ms", single(None, True))
    calls, source = pick(named("cli->sensitivity.hit_probability_profile"))
    put("sensitivity.calls", len(calls), "count", source)
    us_per_sample("sensitivity.mc_us_per_sample", named("cli->sensitivity.mc_estimate"))
    median_ms("search.ms", named("cli->search.find_optimal"))
    median_ms("counting.free_count_ms",
              lambda s: s["name"] == "cli->counting.count_homogeneous" and s["free"]
              and s["length"] in (pool.COUNT_FREE_LENGTH, pool.PROBE_COUNT_FREE_LENGTH))
    median_ms("counting.table_d_ms", named("cli->counting.CountTableD"))
    us_per_sample("sampling.fixed_us_per_sample", named("cli->sampling.sample_fixed"))
    us_per_sample("sampling.free_us_per_sample", named("cli->sampling.sample_free"))
    for name, unit in (("search.candidates", "count"), ("search.evaluated", "count"),
                       ("search.evaluated_ratio", "ratio"), ("search.serial_candidate_ms", "ms"),
                       ("search.parallel_efficiency", "ratio"),
                       ("sampling.parallel_efficiency", "ratio"), ("sampling.spawn_us", "us")):
        put(name, passes[name], unit, "pass")

    work_self = tracer.self_times(work)
    probe_self = tracer.self_times(probe)
    for layer in LAYERS:
        if workload == "seed-search" and layer == "sensitivity":
            search_pass = [s for s in tracer.spans if s["phase"] == "search-pass"]
            put("sensitivity.self_ms", tracer.self_times(search_pass)[layer] * 1e3, "ms", "pass")
        elif any(s["layer"] == layer for s in work):
            put(f"{layer}.self_ms", work_self[layer] / rounds * 1e3, "ms", "workload")
        else:
            put(f"{layer}.self_ms", probe_self[layer] * 1e3, "ms", "probe")
    put("trace.overhead_ratio", traced_s / untraced_s, "ratio",
        f"traced {traced_s:.3f} s / untraced {untraced_s:.3f} s")
    return metrics, sources


def context(workload: str, seed: int, seconds: int, trace: int) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "seedsense").glob("*.py"))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "nproc": NPROC, "python": platform.python_version(),
            "workers": {"generate": WORKERS, "optimize": min(pool.OPTIMIZE_THREADS, WORKERS),
                        "sampling_pass": [1, WORKERS], "search_pass": [1, WORKERS]},
            "src_seedsense_lines": lines, "loop": "closed, one caller"}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    runner = Runner()
    info = context(args.workload, args.seed, args.seconds, args.trace)
    print("context " + json.dumps(info))
    # warm-up: imports and first-call set-up are not part of any command's time
    runner.execute(Op("warmup", ["count", "--length", "5", "--score", "3", "--match", "1",
                                 "--mismatch", "1"],
                      partial(checks.check_count, expected="1"), timed=False))

    if args.trace == 0:
        setup_times = measure_setup(runner)
        rounds, rss_mb = schedule(args.workload, args.seed, args.seconds, runner,
                                  lambda: setup_times.extend(measure_setup(runner)))
        setup_times += measure_setup(runner)
        setup_s = statistics.median(setup_times)
        metrics, detail = end_to_end(args.workload, runner, setup_s, rss_mb)
        print(f"workload {args.workload}: {len(rounds)} rounds, "
              f"{detail['latency_samples']} latency samples, "
              f"tail = p{detail['tail_percentile']:.1f}")
        print("  share of command time: " + ", ".join(
            f"{kind} {share:.0%}" for kind, share in detail["time_shares"].items()))
        for name, (value, unit) in detail["named"].items():
            shown = "n/a (not exercised by this workload)" if value is None else f"{value:.6g}"
            print(f"  {name:30s} {shown} {unit}")
        record = {"context": info, "metrics": metrics, "detail": detail}
    else:
        half = args.seconds / 2
        rounds, _ = schedule(args.workload, args.seed, half, runner)
        untraced_s = sum(r.seconds for r in runner.results if r.op.timed)
        tracer = Tracer()
        tracer.phase = "workload"
        with tracer.installed():
            traced_s = run_rounds(runner, rounds, tracer)
            tracer.phase = "probe"
            run_rounds(runner, [probe_ops()], tracer)
        passes = direct_passes(runner, tracer, args.seed % 2**64)
        metrics, sources = per_layer(args.workload, tracer, len(rounds), untraced_s, traced_s,
                                     passes)
        print(f"workload {args.workload}: {len(rounds)} rounds traced, {len(tracer.spans)} spans")
        for name, m in metrics.items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']:6s} [{sources[name]}]")
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps({"spans": tracer.spans}))
        print(f"  span dump: {spans_path.relative_to(ROOT)}")
        record = {"context": info, "metrics": metrics, "sources": sources,
                  "passes": {k: v for k, v in passes.items() if k.endswith("pass_seconds")}}

    attempted, failed = len(runner.results), runner.failed
    record["ops"] = [{"kind": r.op.kind, "argv": r.op.argv, "seconds": r.seconds,
                      "error": r.error} for r in runner.results]
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(f"failed {failed} of {attempted} attempted operations")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
