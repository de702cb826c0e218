"""Write the answer corpora: what every command line of a fixed grid prints.

Each line of ``corpus.jsonl``, beside this script, holds one command line
(``argv``, as passed to ``seedsense.cli.run``), its exit code, the sha256 of
its stdout and, on a nonzero exit, its stderr text. ``test_corpus.py``
replays every line in-process and compares.

    PYTHONPATH=src python tests/make_corpus.py

The grid, every length at most 128: the schemes (1,1), (1,3), (2,3) and
(3,2); ``count`` with fixed, free and ``all``-model scores; ``sensitivity``
on three seeds with (occurrences, overlap) (1,0), (2,3) and (3,0) in both
models; ``curve``, a weight-6 span-10 ``optimize``, ``generate``, ``mc`` and
``selfcheck --max-length 10``, each in all three formats; the acceptance
queries at length 40 (``ENUMERATED_ROWS``: the ``REFERENCE_ROWS`` table and
the two curve seeds); three exact ties at the last printed digit; and the
rejected command lines (exit 2 and 3) of ``test_cli.py``, except the
unwritable ``--output`` file, which needs ``os.access`` patched. The usage
errors pin argparse's wording, which is the same under Python 3.10 and 3.11.

``corpus_ci.jsonl`` holds the same kind of entries for a larger grid, which
takes about 4 s and so is replayed only in CI, with ``pytest --ci-corpus``:
``sensitivity`` at length 256 on the seeds, strategies and models above, and
``count`` at length 400, each for all four schemes.

Only a change that alters an answer on purpose rewrites the corpora, and the
change lists every entry that moved.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from seedsense.cli import run

CORPUS = Path(__file__).with_name("corpus.jsonl")
CI_CORPUS = Path(__file__).with_name("corpus_ci.jsonl")

SCHEMES = [(1, 1), (1, 3), (2, 3), (3, 2)]
SEEDS = ["1110010110111", "110100110010101111", "11111111111"]
STRATEGIES = [(1, 0), (2, 3), (3, 0)]
FORMATS = ["text", "csv", "json"]


def replay(argv: list[str]) -> dict:
    """The corpus entry of one command line, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    entry = {"argv": argv, "exit": code,
             "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
    if code:
        entry["stderr"] = err.getvalue()
    return entry


def _score(scheme: tuple[int, int], n: int, mismatches: int) -> int:
    s, p = scheme
    return (n - mismatches) * s - mismatches * p


def _scheme_args(scheme: tuple[int, int]) -> list[str]:
    return ["--match", str(scheme[0]), "--mismatch", str(scheme[1])]


def _count_lines(scheme: tuple[int, int], n: int) -> list[list[str]]:
    """``count`` at length n: the free score, fixed and ``all``-model scores, two formats."""
    base = ["count", "--length", str(n), *_scheme_args(scheme)]
    lines = [base]  # free score
    scores = sorted({_score(scheme, n, q) for q in (0, n // 8, n // 4, n // 2)})
    for score in scores:
        if score >= 1:
            lines.append([*base, "--score", str(score)])
        lines.append([*base, "--score", str(score), "--model", "all"])
    for fmt in FORMATS[1:]:
        lines.append([*base, "--score", str(scores[-1]), "--format", fmt])
    return lines


def _sensitivity_lines(scheme: tuple[int, int], n: int) -> list[list[str]]:
    """``sensitivity`` at length n: every seed and strategy in both models."""
    score = str(_score(scheme, n, n // 6))
    return [["sensitivity", "--seed", seed, "--occurrences", str(occurrences),
             "--max-overlap", str(overlap), "--length", str(n), "--score", score,
             "--model", model, *_scheme_args(scheme), "--format", "csv"]
            for seed in SEEDS for occurrences, overlap in STRATEGIES
            for model in ("homogeneous", "all")]


def command_lines() -> list[list[str]]:
    from test_acceptance import ENUMERATED_ROWS, LENGTH

    lines = []
    for scheme in SCHEMES:
        for n in (1, 17, 64, 128):
            lines += _count_lines(scheme, n)
        for n in (40, 64, 128):
            lines += _sensitivity_lines(scheme, n)
        for fmt in ("text", "json"):
            lines.append(["sensitivity", "--seed", SEEDS[0], "--length", "40",
                          "--score", str(_score(scheme, 40, 6)), *_scheme_args(scheme),
                          "--format", fmt, "--precision", "9"])
    # the acceptance queries, at (1, 3), the default scheme
    for pattern, score in ENUMERATED_ROWS:
        for model in ("homogeneous", "all"):
            lines.append(["sensitivity", "--seed", pattern, "--length", str(LENGTH),
                          "--score", str(score), "--model", model, "--format", "csv"])
    for fmt in FORMATS:
        tail = ["--format", fmt]
        lines += [
            ["curve", "--seed", "1011", "--score", "8", "--length-range", "8:24", *tail],
            ["curve", "--seed", "11", "--score", "2", "--length-range", "2:6", "--model",
             "all", *tail],
            ["curve", "--seed", "101", "--occurrences", "2", "--max-overlap", "1",
             "--score", "4", "--length-range", "8:40:4", "--model", "homogeneous",
             *_scheme_args((1, 1)), "--precision", "4", *tail],
            ["optimize", "--weight", "6", "--max-span", "10", "--length", "40",
             "--score", "12", *tail],
            ["optimize", "--weight", "6", "--max-span", "10", "--length", "40",
             "--score", "12", "--model", "all", "--top", "3", *tail],
            ["generate", "--length", "40", "--score", "12", "--samples", "50",
             "--rng-seed", "5", *tail],
            ["generate", "--length", "64", "--samples", "50", "--rng-seed", "6", *tail],
            ["generate", "--length", "17", "--score", "9", *_scheme_args((1, 1)),
             "--samples", "40", "--rng-seed", "3", "--threads", "2", *tail],
            ["mc", "--seed", "1110010110111", "--length", "40", "--score", "12",
             "--samples", "300", "--rng-seed", "8", *tail],
            ["mc", "--seed", "110100110010101111", "--occurrences", "2", "--max-overlap",
             "3", "--length", "64", "--score", "16", "--model", "all", "--samples", "300",
             "--rng-seed", "2", "--precision", "3", *tail],
            ["selfcheck", "--max-length", "10", *tail],
        ]
    lines.append(["optimize", "--weight", "6", "--max-span", "10", "--length", "40",
                  "--score", "12", "--top", "200", "--format", "csv"])
    # exact ties at the last digit printed (1/4 to one digit), which round half to even
    lines += [
        ["sensitivity", "--seed", "1011", "--length", "4", "--score", "2", "--model", "all",
         *_scheme_args((1, 1)), "--precision", "1"],
        ["curve", "--seed", "1011", "--score", "2", "--length-range", "2:20", "--model", "all",
         *_scheme_args((1, 1)), "--precision", "1"],
        ["mc", "--seed", "11111", "--length", "14", "--score", "6", "--samples", "4",
         "--rng-seed", "6", "--precision", "1"],
    ]
    # the rejected command lines of test_cli.py
    lines += [
        ["count"],
        ["count", "--length", "0"],
        ["nonsense"],
        ["sensitivity", "--seed", "011", "--length", "5", "--score", "3"],
        ["sensitivity", "--seed", "101", "--length", "9", "--score", "3", "--max-overlap", "3"],
        ["count", "--length", "5", "--score", "3", "--model", "all", "--format", "yaml"],
        ["count", "--len", "5"],
        ["count", "--length", "5", "--model", "all"],
        ["sensitivity", "--seed", "11", "--length", "5", "--score", "2"],
        ["curve", "--seed", "11", "--score", "5", "--length-range", "2:4"],
        ["count", "--length", "10", "--score", "0"],
        ["count", "--length", "10", "--score", "-3"],
        ["generate", "--length", "5", "--score", "2"],
        ["generate", "--length", "10", "--score", "0", "--threads", "2"],
        ["generate", "--length", "10", "--score", "-3", "--threads", "2"],
        ["generate", "--length", "5", "--score", "2", "--samples", "2", "--threads", "2"],
        ["generate", "--length", "5", "--score", "3", "--precision", "3"],
        ["count", "--length", "5", "--precision", "3"],
        ["selfcheck", "--max-length", "1", "--precision", "3"],
        ["generate", "--length", "5", "--score", "3", *_scheme_args((1, 1)),
         "--rng-seed", str(2**64)],
        ["sensitivity", "--seed", "1", "--length", "3", "--score", "1", *_scheme_args((1, 1))],
        ["optimize", "--weight", "2", "--max-span", "3", "--length", "10", "--score", "0"],
        ["optimize", "--weight", "3", "--max-span", "5", "--length", "12", "--score", "40",
         "--model", "all", "--threads", "2"],
        ["optimize", "--weight", "3", "--max-span", "5", "--length", "12", "--score", "4",
         "--model", "homogeneous", "--threads", "2"],
        ["curve", "--seed", "11", "--score", "4", "--length-range", "9"],
        ["curve", "--seed", "11", "--score", "4", "--length-range", "5:1"],
        ["count", "--length", "5", "--output", "no_such_directory/out.txt"],
        ["count", "--length", "5", "--output", ""],
        ["count", "--length", "5", "--output", "."],
        ["selfcheck", "--max-length", "21"],
    ]
    return lines


def ci_command_lines() -> list[list[str]]:
    """The larger grid, replayed only with ``--ci-corpus``: the ``sensitivity`` lines
    at length 256 and the ``count`` lines at length 400, for every scheme."""
    return [line for scheme in SCHEMES
            for line in _sensitivity_lines(scheme, 256) + _count_lines(scheme, 400)]


def main() -> None:
    for path, lines in ((CORPUS, command_lines()), (CI_CORPUS, ci_command_lines())):
        entries = [replay(argv) for argv in lines]
        path.write_text("".join(json.dumps(entry) + "\n" for entry in entries))
        codes = [entry["exit"] for entry in entries]
        print(f"{path.name}: {len(entries)} command lines, {codes.count(0)} exit 0, "
              f"{len(codes) - codes.count(0)} rejected", file=sys.stderr)


if __name__ == "__main__":
    main()
