"""The README's examples, run: the library block and the command-line transcript."""

import ast
import re
import shlex
from pathlib import Path

from seedsense.cli import run

BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", (Path(__file__).parents[1] / "README.md").read_text(),
                    re.MULTILINE | re.DOTALL)


def test_library_example():
    # each statement runs in order; an expression statement is checked against the
    # `# value` comment after it, by repr
    [source] = [body for lang, body in BLOCKS if lang == "python"]
    lines = source.splitlines()
    namespace = {}
    checked = 0
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
            continue
        comment = lines[node.end_lineno - 1][node.end_col_offset:].strip()
        assert comment.startswith("# "), f"README line {node.lineno} shows no value"
        assert repr(eval(compile(ast.Expression(node.value), "README.md", "eval"),
                         namespace)) == comment[2:]
        checked += 1
    assert checked == 4


def test_command_line_transcript(capsys, serial_pool):
    # every `$ seedsense ...` line prints the lines shown under it; a `...` line
    # ends the part of the output that is shown
    [transcript] = [body for lang, body in BLOCKS if body.startswith("$ seedsense ")]
    commands = [chunk.splitlines() for chunk in transcript.strip().split("\n\n")]
    for command, *shown in commands:
        assert run(shlex.split(command)[2:]) == 0, command
        printed = capsys.readouterr().out.splitlines()
        if shown[-1] == "...":
            shown.pop()
            printed = printed[:len(shown)]
        assert printed == shown, command
    assert len(commands) == 7
