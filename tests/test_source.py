"""Properties of the package source itself."""

import ast
from pathlib import Path

import seedsense

PACKAGE = Path(seedsense.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so an invariant check written as
    # one would silently stop running; checks must raise instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def test_one_process_pool():
    # every parallel loop goes through one helper, which alone opens a pool
    users = sorted(path.name for path in PACKAGE.glob("*.py")
                   if "ProcessPoolExecutor" in path.read_text())
    assert users == ["_pool.py"], f"modules that open a process pool: {users}"
