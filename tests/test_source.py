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


def test_one_count_recurrence():
    # every walk count comes from one sweep: the backward table is only the
    # reference selfcheck compares against and curve's emptiness filter, and
    # binomials count only the uniform model's population and, in search.py,
    # the candidate seeds
    table_users = sorted(path.name for path in PACKAGE.glob("*.py")
                         if "CountTableD" in path.read_text())
    assert set(table_users) <= {"counting.py", "cli.py", "selfcheck.py"}, table_users
    comb_users = sorted(path.name for path in PACKAGE.glob("*.py")
                        if "math.comb" in path.read_text())
    assert set(comb_users) <= {"counting.py", "search.py"}, comb_users
