"""Command-line interface.

Subcommands: count, generate, sensitivity, mc, optimize, curve, selfcheck.
All parameters are flags and are echoed into CSV/JSON output rows; text
output keeps the primary result terse. Exit codes: 0 success, 2 bad
arguments, 3 infeasible length/score combination, 4 failed self-check.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import sys
from contextlib import contextmanager
from typing import Sequence

import click

from .alignments import DetectionStrategy, ScoringScheme, Seed
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
from .sampling import RandomStream, sample_fixed, sample_free
from .search import SearchSpec, find_optimal
from .sensitivity import (
    SensitivityQuery,
    decimal_ratio,
    hit_probability_profile,
    mc_estimate,
)
from .selfcheck import run_selfcheck

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_SELFCHECK = 4


class SelfCheckFailure(Exception):
    """At least one consistency suite reported a failure."""


def _scheme_options(f):
    f = click.option("--match", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Score added per matching position.")(f)
    f = click.option("--mismatch", type=click.IntRange(min=1), default=3, show_default=True,
                     help="Penalty magnitude subtracted per mismatching position.")(f)
    return f


def _output_directory_exists(ctx, param, path: str | None) -> str | None:
    # checked while parsing, so a request that could not be written does no work
    if path == "":
        raise click.BadParameter("path is empty")
    if path is not None and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise click.BadParameter(f"directory of {path!r} does not exist")
    return path


def _output_options(f):
    f = click.option("--format", "fmt", type=click.Choice(["text", "csv", "json"]),
                     default="text", show_default=True, help="Output rendering.")(f)
    f = click.option("--output", "output_path", type=click.Path(dir_okay=False, writable=True),
                     default=None, callback=_output_directory_exists,
                     help="Write to this file instead of standard output.")(f)
    return f


def _precision_option(f):
    return click.option("--precision", type=click.IntRange(min=1), default=6, show_default=True,
                        help="Digits in decimal probability renderings.")(f)


def _strategy_options(f):
    f = click.option("--seed", "seed_pattern", required=True,
                     help="Seed pattern over 0/1; must start and end with 1.")(f)
    f = click.option("--occurrences", type=click.IntRange(min=1), default=1, show_default=True,
                     help="Seed occurrences required for a hit.")(f)
    f = click.option("--max-overlap", type=click.IntRange(min=0), default=0, show_default=True,
                     help="Largest permitted overlap between consecutive occurrences.")(f)
    return f


@contextmanager
def _usage_errors():
    # the domain constructors check their own arguments: a request they reject is
    # a usage error (exit 2), and the rule is stated only where it is enforced
    try:
        yield
    except ValueError as err:
        raise click.UsageError(str(err)) from None


def _parse_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise click.BadParameter("length range must look like a:b or a:b:step")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError:
        raise click.BadParameter(f"length range {text!r} is not numeric")
    if lo < 1 or hi < lo or step < 1:
        raise click.BadParameter(f"length range {text!r} is empty or invalid")
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
        click.echo(payload, nl=False)


@click.group()
def cli() -> None:
    """Exact counting, uniform generation, and spaced-seed sensitivity for
    score-constrained gapless alignments."""


@cli.command()
@click.option("--length", type=click.IntRange(min=1), required=True, help="Alignment length.")
@click.option("--score", type=int, default=None, help="Total alignment score; omit for any score.")
@click.option("--model", type=click.Choice(MODELS), default=HOMOGENEOUS,
              show_default=True, help="Alignment population to count.")
@_scheme_options
@_output_options
def count(length: int, score: int | None, model: str, match: int, mismatch: int,
          fmt: str, output_path: str | None) -> None:
    """Count alignments of a given length (and score)."""
    scheme = ScoringScheme(match, mismatch)
    if model == UNIFORM:
        if score is None:
            raise click.UsageError("--model all requires --score")
        result = count_unconstrained(scheme, length, score)
    else:
        result = count_homogeneous(scheme, length, score)
    rows = [{
        "match": match, "mismatch": mismatch, "length": length,
        "score": score, "model": model, "count": str(result),
    }]
    _emit(rows, [str(result)], fmt, output_path)


@cli.command()
@click.option("--length", type=click.IntRange(min=1), required=True, help="Alignment length.")
@click.option("--score", type=int, default=None,
              help="Exact total score; omit to sample over all homogeneous alignments.")
@click.option("--samples", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--rng-seed", type=click.IntRange(min=0, max=2**64 - 1), default=0,
              show_default=True, help="64-bit seed for the sample streams.")
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker processes, at most one per usable CPU; output is identical "
                   "for any value (default: one per usable CPU for large sample counts).")
@_scheme_options
@_output_options
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


def _query_options(f):
    # the strategy options, --length, --score and --model; the command receives them,
    # with --match and --mismatch, as one checked SensitivityQuery
    @_strategy_options
    @click.option("--length", type=click.IntRange(min=1), required=True, help="Alignment length.")
    @click.option("--score", type=int, required=True, help="Total alignment score.")
    @click.option("--model", type=click.Choice(MODELS), default=HOMOGENEOUS,
                  show_default=True, help="Alignment population.")
    @functools.wraps(f)
    def command(seed_pattern, occurrences, max_overlap, length, score, model, match, mismatch,
                **options):
        with _usage_errors():
            strategy = DetectionStrategy(Seed(seed_pattern), occurrences, max_overlap)
            query = SensitivityQuery(strategy, ScoringScheme(match, mismatch), length, score, model)
        return f(query, **options)
    return command


def _query_row(query: SensitivityQuery) -> dict:
    strategy, scheme = query.strategy, query.scheme
    return {"seed": strategy.seed.pattern, "occurrences": strategy.required_occurrences,
            "max_overlap": strategy.max_overlap, "match": scheme.match_score,
            "mismatch": scheme.mismatch_penalty, "length": query.length, "score": query.score,
            "model": query.model}


@cli.command()
@_query_options
@_scheme_options
@_output_options
@_precision_option
def sensitivity(query: SensitivityQuery, fmt: str, precision: int,
                output_path: str | None) -> None:
    """Exact probability that the strategy detects a random alignment."""
    report = hit_probability_profile(query.strategy, query.scheme, query.score,
                                     [query.length], query.model)[0]
    probability = report.decimal(precision)
    rows = [{**_query_row(query), "numerator": str(report.numerator),
             "denominator": str(report.denominator), "probability": probability}]
    _emit(rows, [probability], fmt, output_path)


@cli.command()
@_query_options
@click.option("--samples", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--rng-seed", type=click.IntRange(min=0, max=2**64 - 1), default=0,
              show_default=True)
@_scheme_options
@_output_options
@_precision_option
def mc(query: SensitivityQuery, samples: int, rng_seed: int, fmt: str, precision: int,
       output_path: str | None) -> None:
    """Monte-Carlo estimate of the hit probability, with standard error."""
    result = mc_estimate(query, samples, RandomStream(rng_seed))
    estimate_text = decimal_ratio(result.hits, result.samples, precision)
    stderr_text = f"{result.stderr:.{precision}f}"
    rows = [{**_query_row(query), "samples": samples, "rng_seed": rng_seed,
             "hits": result.hits, "estimate": estimate_text, "stderr": stderr_text}]
    _emit(rows, [f"{estimate_text} stderr {stderr_text}"], fmt, output_path)


@cli.command()
@click.option("--weight", type=click.IntRange(min=2), required=True,
              help="Required matches in every candidate seed.")
@click.option("--max-span", type=click.IntRange(min=2), required=True,
              help="Largest candidate span to enumerate.")
@click.option("--length", type=click.IntRange(min=1), required=True, help="Alignment length.")
@click.option("--score", type=int, required=True, help="Total alignment score.")
@click.option("--model", type=click.Choice(MODELS), default=HOMOGENEOUS,
              show_default=True, help="Alignment population.")
@click.option("--top", type=click.IntRange(min=1), default=10, show_default=True,
              help="Ranked seeds to keep.")
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker processes, at most one per usable CPU (default: one per "
                   "usable CPU).")
@_scheme_options
@_output_options
@_precision_option
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
        rows.append({
            "rank": rank, "seed": entry.seed.pattern, "span": entry.seed.span,
            "weight": entry.seed.weight, "numerator": str(entry.numerator),
            "denominator": str(entry.denominator), "probability": probability,
        })
        text_lines.append(f"{rank} {entry.seed.pattern} {probability}")
    text_lines.append(f"# candidates={ranked.candidate_count}")
    _emit(rows, text_lines, fmt, output_path)


@cli.command()
@_strategy_options
@click.option("--score", type=int, required=True, help="Total alignment score.")
@click.option("--length-range", "length_range", required=True,
              help="Lengths to sweep, as a:b or a:b:step (inclusive).")
@click.option("--model", type=click.Choice([*MODELS, "both"]), default="both",
              show_default=True, help="Population(s) to evaluate.")
@_scheme_options
@_output_options
@_precision_option
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
        # a feasible composition can still have an empty homogeneous population
        table = CountTableD(scheme, score, max(feasible))
        feasible = [n for n in feasible if table.count(0, n) > 0]
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
            rows.append({
                "n": n, "score": score, "seed": seed_pattern, "model": m,
                "numerator": str(report.numerator),
                "denominator": str(report.denominator),
                "probability": probability,
            })
            text_lines.append(f"n={n} model={m} probability={probability}")
    _emit(rows, text_lines, fmt, output_path)


@cli.command()
@click.option("--max-length", type=click.IntRange(min=1, max=20), default=14, show_default=True,
              help="Exhaustive-enumeration bound for the oracle suites.")
@_output_options
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


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch a command line; returns the process exit code."""
    try:
        cli.main(args=list(argv) if argv is not None else None, standalone_mode=False)
    except click.UsageError as err:
        err.show()
        return EXIT_USAGE
    except click.exceptions.Exit as err:
        return err.exit_code
    except click.ClickException as err:
        err.show()
        return err.exit_code
    except InfeasibleScore as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_INFEASIBLE
    except SelfCheckFailure as err:
        click.echo(f"error: {err}", err=True)
        return EXIT_SELFCHECK
    return EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
