"""Command-line interface on the standard library's ``argparse``.

Subcommands: count, generate, sensitivity, mc, optimize, curve, selfcheck: one
parser, built at import, has a subparser per command, which calls the function of
its name. All parameters are flags and are echoed into CSV/JSON output rows; text
output keeps the primary result terse. Exit codes: 0 success, 2 bad arguments
(stderr starts with ``Error: ``), 3 infeasible length/score combination, 4 failed
self-check.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from typing import Sequence

from .alignments import ORACLE_LENGTH_LIMIT, DetectionStrategy, ScoringScheme, Seed
from .counting import (
    HOMOGENEOUS,
    MODELS,
    UNIFORM,
    CountTableD,
    InfeasibleScore,
    check_model,
    count_homogeneous,
    count_unconstrained,
    mismatch_count,
)
from .sampling import RandomStream, mc_estimate, sample_fixed, sample_free
from .search import SearchSpec, find_optimal
from .sensitivity import SensitivityQuery, decimal_ratio, hit_probability_profile
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SELFCHECK = 4


class SelfCheckFailure(Exception):
    """At least one consistency suite reported a failure."""


class UsageError(Exception):
    """A command line that the parser or a domain constructor rejects (exit 2)."""


class _Parser(argparse.ArgumentParser):
    """Raises on a bad command line; takes no abbreviated option and no ``-h``."""

    def __init__(self, **kwargs) -> None:
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def error(self, message: str):
        # not exit_on_error=False, which still exits on some errors under Python 3.10
        raise UsageError(message)


def _int_range(low: int, high: int | None = None):
    """An integer option type with inclusive bounds."""
    def integer(text: str) -> int:
        # argparse reports a ValueError as "invalid integer value"
        value = int(text)
        if value < low or (high is not None and value > high):
            bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"
            raise argparse.ArgumentTypeError(f"{value} is not in the range {bounds}")
        return value
    return integer


def _output_path(path: str) -> str:
    # checked while parsing, so a request that could not be written does no work
    if path == "":
        raise argparse.ArgumentTypeError("path is empty")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"directory of {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path!r} is a directory")
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise argparse.ArgumentTypeError(f"{path!r} is not writable")
    return path


# the options that several commands share, each a flag and the keywords of add_argument
_LENGTH = ("--length", dict(type=_int_range(1), required=True, help="Alignment length."))
_SCORE = ("--score", dict(type=int, required=True, help="Total alignment score."))
_MODEL = ("--model", dict(choices=MODELS, default=HOMOGENEOUS, help="Alignment population."))
_SCHEME = (("--match", dict(type=_int_range(1), default=1,
                            help="Score added per matching position.")),
           ("--mismatch", dict(type=_int_range(1), default=3,
                               help="Penalty magnitude subtracted per mismatching position.")))
_OUTPUT = (("--format", dict(dest="fmt", choices=["text", "csv", "json"], default="text",
                             help="Output rendering.")),
           ("--output", dict(dest="output_path", type=_output_path,
                             help="Write to this file instead of standard output.")))
_PRECISION = ("--precision", dict(type=_int_range(1), default=6,
                                  help="Digits in decimal probability renderings."))
_STRATEGY = (("--seed", dict(dest="seed_pattern", required=True,
                             help="Seed pattern over 0/1; must start and end with 1.")),
             ("--occurrences", dict(type=_int_range(1), default=1,
                                    help="Seed occurrences required for a hit.")),
             ("--max-overlap", dict(type=_int_range(0), default=0, help="Largest permitted "
                                    "overlap between consecutive occurrences.")))


@contextmanager
def _usage_errors():
    # the domain constructors check their own arguments: a request they reject is
    # a usage error (exit 2), and the rule is stated only where it is enforced
    try:
        yield
    except ValueError as err:
        raise UsageError(str(err)) from None


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError("length range must look like a:b or a:b:step")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise UsageError(f"length range {text!r} is not numeric")
    if lo < 1 or hi < lo or step < 1:
        raise UsageError(f"length range {text!r} is empty or invalid")
    return list(range(lo, hi + 1, step))


def _csv(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def _emit(rows: list[dict], text_lines: list[str], fmt: str, output_path: str | None) -> None:
    if fmt == "text":
        payload = "".join(line + "\n" for line in text_lines)
    elif fmt == "csv":
        # every row of a command has the same keys in the same order
        payload = _csv([rows[0], *(row.values() for row in rows)])
    else:
        payload = json.dumps(rows, indent=2) + "\n"
    _write(payload, output_path)


def _write(payload: str, output_path: str | None) -> None:
    if output_path is not None:
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        # flushed, as a following stderr line would otherwise come first
        sys.stdout.write(payload)
        sys.stdout.flush()


def count(length: int, score: int | None, model: str, match: int, mismatch: int,
          fmt: str, output_path: str | None) -> None:
    """Count alignments of a given length (and score)."""
    if score is not None:
        with _usage_errors():
            check_model(model, score)
    scheme = ScoringScheme(match, mismatch)
    if model == UNIFORM:
        if score is None:
            raise UsageError("--model all requires --score")
        result = count_unconstrained(scheme, length, score)
    else:
        result = count_homogeneous(scheme, length, score)
    rows = [{"match": match, "mismatch": mismatch, "length": length, "score": score,
             "model": model, "count": str(result)}]
    _emit(rows, [str(result)], fmt, output_path)


def generate(length: int, score: int | None, samples: int, rng_seed: int, threads: int | None,
             match: int, mismatch: int, fmt: str, output_path: str | None) -> None:
    """Generate uniform random homogeneous alignments, one per line."""
    if score is not None:
        with _usage_errors():
            check_model(HOMOGENEOUS, score)
    scheme = ScoringScheme(match, mismatch)
    stream = RandomStream(rng_seed)
    if threads is None:
        # worker processes only pay off for big batches; output never changes,
        # and the pool starts at most one worker per usable CPU
        threads = samples if samples >= 50_000 else 1
    if score is None:
        drawn = sample_free(scheme, length, samples, stream, workers=threads)
    else:
        drawn = sample_fixed(scheme, length, score, samples, stream, workers=threads)
    params = {"match": match, "mismatch": mismatch, "length": length, "score": score,
              "rng_seed": rng_seed, "samples": samples}
    # every format is a head, the sample texts (never quoted or escaped) joined by
    # one separator, and a tail; there is at least one sample, and joining builds no
    # per-row string, which keeps peak memory down
    if fmt == "csv":
        # the parameter columns are the same on every row: render them once
        sep = tail = "," + _csv([params.values()])
        head = _csv([["alignment", *params]])
    elif fmt == "json":
        # one row rendered around a placeholder and indented as a list element
        # (the text after the placeholder starts mid-line)
        row = json.dumps({"alignment": "\0", **params}, indent=2).replace("\n", "\n  ")
        before, after = row.split("\\u0000")
        head, sep, tail = "[\n  " + before, after + ",\n  " + before, after + "\n]\n"
    else:
        head, sep = "", "\n"
        tail = (f"\n# match={match} mismatch={mismatch} length={length} "
                f"score={'any' if score is None else score} rng-seed={rng_seed} "
                f"samples={samples}\n")
    _write(head + sep.join(drawn) + tail, output_path)


def _query(seed_pattern: str, occurrences: int, max_overlap: int, length: int, score: int,
           model: str, match: int, mismatch: int) -> SensitivityQuery:
    # the strategy options, --length, --score, --model and the scheme, as one checked query
    with _usage_errors():
        strategy = DetectionStrategy(Seed(seed_pattern), occurrences, max_overlap)
        return SensitivityQuery(strategy, ScoringScheme(match, mismatch), length, score, model)


def _query_row(query: SensitivityQuery) -> dict:
    strategy, scheme = query.strategy, query.scheme
    return {"seed": strategy.seed.pattern, "occurrences": strategy.required_occurrences,
            "max_overlap": strategy.max_overlap, "match": scheme.match_score,
            "mismatch": scheme.mismatch_penalty, "length": query.length, "score": query.score,
            "model": query.model}


def sensitivity(fmt: str, precision: int, output_path: str | None, **query_options) -> None:
    """Exact probability that the strategy detects a random alignment."""
    query = _query(**query_options)
    report = hit_probability_profile(query.strategy, query.scheme, query.score,
                                     [query.length], query.model)[0]
    probability = report.decimal(precision)
    rows = [{**_query_row(query), "numerator": str(report.numerator),
             "denominator": str(report.denominator), "probability": probability}]
    _emit(rows, [probability], fmt, output_path)


def mc(samples: int, rng_seed: int, fmt: str, precision: int, output_path: str | None,
       **query_options) -> None:
    """Monte-Carlo estimate of the hit probability, with standard error."""
    query = _query(**query_options)
    result = mc_estimate(query, samples, RandomStream(rng_seed))
    estimate_text = decimal_ratio(result.hits, result.samples, precision)
    stderr_text = f"{result.stderr:.{precision}f}"
    rows = [{**_query_row(query), "samples": samples, "rng_seed": rng_seed,
             "hits": result.hits, "estimate": estimate_text, "stderr": stderr_text}]
    _emit(rows, [f"{estimate_text} stderr {stderr_text}"], fmt, output_path)


def optimize(weight: int, max_span: int, length: int, score: int, model: str, top: int,
             threads: int | None, match: int, mismatch: int, fmt: str, precision: int,
             output_path: str | None) -> None:
    """Exhaustively rank candidate seeds by exact sensitivity."""
    with _usage_errors():
        spec = SearchSpec(weight, max_span, ScoringScheme(match, mismatch), length, score,
                          model, top)
    ranked = find_optimal(spec, threads=threads)
    rows = []
    text_lines = []
    for rank, entry in enumerate(ranked.entries, start=1):
        probability = decimal_ratio(entry.numerator, entry.denominator, precision)
        rows.append({"rank": rank, "seed": entry.seed.pattern, "span": entry.seed.span,
                     "weight": entry.seed.weight, "numerator": str(entry.numerator),
                     "denominator": str(entry.denominator), "probability": probability})
        text_lines.append(f"{rank} {entry.seed.pattern} {probability}")
    text_lines.append(f"# candidates={ranked.candidate_count}")
    _emit(rows, text_lines, fmt, output_path)


def curve(seed_pattern: str, occurrences: int, max_overlap: int, score: int, length_range: str,
          model: str, match: int, mismatch: int, fmt: str, precision: int,
          output_path: str | None) -> None:
    """Hit probability as a function of alignment length, at a fixed score.

    A length with no alignment of the given score is skipped. When the
    homogeneous model is requested, alone or under "both", a length with no
    homogeneous alignment of the score is skipped for every requested model.
    Each remaining (length, model) pair yields exactly one row.
    """
    models = [HOMOGENEOUS, UNIFORM] if model == "both" else [model]
    with _usage_errors():
        strategy = DetectionStrategy(Seed(seed_pattern), occurrences, max_overlap)
        scheme = ScoringScheme(match, mismatch)
        # checked here, where a rejection is a usage error: below this block,
        # CountTableD and hit_probability_profile would raise it as a traceback
        for m in models:
            check_model(m, score)
    lengths = _parse_range(length_range)
    feasible = [n for n in lengths if mismatch_count(scheme, n, score) is not None]
    if HOMOGENEOUS in models and feasible:
        # a feasible composition can still have an empty homogeneous population.
        # CountTableD reads the populations from the one count sweep; the name stays
        # only because benchmarks/tracing.py times it by name, until ROADMAP item 1
        table = CountTableD(scheme, score, max(feasible))
        feasible = [n for n in feasible if table.count(n) > 0]
    if not feasible:
        raise InfeasibleScore(f"no length in {length_range} admits score {score}")
    by_model = {}
    for m in models:
        reports = hit_probability_profile(strategy, scheme, score, feasible, m)
        by_model[m] = dict(zip(feasible, reports))
    rows = []
    text_lines = []
    for n in feasible:
        for m in sorted(models):
            report = by_model[m][n]
            probability = report.decimal(precision)
            rows.append({"n": n, "score": score, "seed": seed_pattern, "model": m,
                         "numerator": str(report.numerator),
                         "denominator": str(report.denominator), "probability": probability})
            text_lines.append(f"n={n} model={m} probability={probability}")
    _emit(rows, text_lines, fmt, output_path)


def selfcheck(max_length: int, fmt: str, output_path: str | None) -> None:
    """Run the brute-force oracle suites and report pass/fail per property."""
    results = run_selfcheck(max_length)
    rows = [{"property": r.name, "status": "pass" if r.passed else "FAIL", "detail": r.detail}
            for r in results]
    text_lines = [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}" for r in results]
    failures = sum(not r.passed for r in results)
    text_lines.append(f"# {len(results) - failures}/{len(results)} properties passed")
    _emit(rows, text_lines, fmt, output_path)
    if failures:
        raise SelfCheckFailure(f"{failures} consistency properties failed")


# each command: the function it dispatches to, then its options
_COMMANDS = (
    (count, _LENGTH,
     ("--score", dict(type=int, help="Total alignment score; omit for any score.")),
     ("--model", dict(choices=MODELS, default=HOMOGENEOUS, help="Alignment population to count.")),
     *_SCHEME, *_OUTPUT),
    (generate, _LENGTH,
     ("--score", dict(type=int, help="Exact total score; omit to sample over all homogeneous "
                                     "alignments.")),
     ("--samples", dict(type=_int_range(1), default=1)),
     ("--rng-seed", dict(type=_int_range(0, 2**64 - 1), default=0,
                         help="64-bit seed for the sample streams.")),
     ("--threads", dict(type=_int_range(1), help="Worker processes, at most one per usable CPU; "
                        "output is identical for any value (default: one per usable CPU for "
                        "large sample counts).")),
     *_SCHEME, *_OUTPUT),
    (sensitivity, *_STRATEGY, _LENGTH, _SCORE, _MODEL, *_SCHEME, *_OUTPUT, _PRECISION),
    (mc, *_STRATEGY, _LENGTH, _SCORE, _MODEL,
     ("--samples", dict(type=_int_range(1), default=100_000)),
     ("--rng-seed", dict(type=_int_range(0, 2**64 - 1), default=0)),
     *_SCHEME, *_OUTPUT, _PRECISION),
    (optimize,
     ("--weight", dict(type=_int_range(2), required=True,
                       help="Required matches in every candidate seed.")),
     ("--max-span", dict(type=_int_range(2), required=True,
                         help="Largest candidate span to enumerate.")),
     _LENGTH, _SCORE, _MODEL,
     ("--top", dict(type=_int_range(1), default=10, help="Ranked seeds to keep.")),
     ("--threads", dict(type=_int_range(1), help="Worker processes, at most one per usable CPU "
                        "(default: one per usable CPU).")),
     *_SCHEME, *_OUTPUT, _PRECISION),
    (curve, *_STRATEGY, _SCORE,
     ("--length-range", dict(required=True,
                             help="Lengths to sweep, as a:b or a:b:step (inclusive).")),
     ("--model", dict(choices=[*MODELS, "both"], default="both",
                      help="Population(s) to evaluate.")),
     *_SCHEME, *_OUTPUT, _PRECISION),
    (selfcheck,
     ("--max-length", dict(type=_int_range(1, ORACLE_LENGTH_LIMIT), default=14,
                           help="Exhaustive-enumeration bound for the oracle suites.")),
     *_OUTPUT),
)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seedsense", description="Exact counting, uniform generation, and "
                     "spaced-seed sensitivity for score-constrained gapless alignments.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for function, *options in _COMMANDS:
        doc = function.__doc__ or ""  # None under python -OO
        sub = commands.add_parser(function.__name__, help=doc.split("\n")[0], description=doc)
        sub.set_defaults(function=function)
        for flag, keywords in options:
            if "default" in keywords:
                # the help shows every default an option declares
                shown = f"{keywords.get('help', '')} [default: %(default)s]".lstrip()
                keywords = {**keywords, "help": shown}
            sub.add_argument(flag, **keywords)
    return parser


_PARSER = _parser()


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        options = vars(_PARSER.parse_args(argv))
        options.pop("function")(**options)
    except SystemExit as shown:
        # only --help exits, after printing its text
        return shown.code
    except UsageError as err:
        sys.stderr.write(f"Error: {err}\n")
        return EXIT_USAGE
    except (InfeasibleScore, SelfCheckFailure) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INFEASIBLE if isinstance(err, InfeasibleScore) else EXIT_SELFCHECK
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
