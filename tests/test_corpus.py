"""The committed answer corpora, replayed: every command line of ``corpus.jsonl``,
and with ``--ci-corpus`` of ``corpus_ci.jsonl``, must exit with its recorded code,
print stdout with its recorded sha256 and, on a nonzero exit, print its recorded
stderr. ``make_corpus.py`` wrote the files and names the grids."""

import json

import pytest

from make_corpus import CI_CORPUS, CORPUS, replay


def _moved(path):
    entries = [json.loads(line) for line in path.read_text().splitlines()]
    moved = [" ".join(entry["argv"]) for entry in entries if replay(entry["argv"]) != entry]
    return len(entries), moved


def test_every_command_line_gives_its_recorded_answer(serial_pool):
    count, moved = _moved(CORPUS)
    assert not moved, f"{len(moved)} of {count} command lines changed: {moved}"
    assert count == 457


def test_every_ci_command_line_gives_its_recorded_answer(request, serial_pool):
    if not request.config.getoption("--ci-corpus"):
        pytest.skip("lengths 256 and 400 take about 4 s: run with --ci-corpus")
    count, moved = _moved(CI_CORPUS)
    assert not moved, f"{len(moved)} of {count} command lines changed: {moved}"
    assert count == 112
