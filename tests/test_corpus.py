"""The committed answer corpus, replayed: every command line of ``corpus.jsonl``
must exit with its recorded code, print stdout with its recorded sha256 and, on a
nonzero exit, print its recorded stderr. ``make_corpus.py`` wrote the file and
names the grid."""

import json

from make_corpus import CORPUS, replay


def test_every_command_line_gives_its_recorded_answer(serial_pool):
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    moved = [" ".join(entry["argv"]) for entry in entries if replay(entry["argv"]) != entry]
    assert not moved, f"{len(moved)} of {len(entries)} command lines changed: {moved}"
    assert len(entries) == 457
