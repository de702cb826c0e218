"""Properties of the package source itself."""

import ast
import subprocess
import sys
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


def test_trivial_command_loads_no_process_pool():
    # a command that opens no pool does not import concurrent.futures: it is
    # imported when a pool opens, and loading it costs every command's start-up
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from seedsense.cli import run; "
            "run(sys.argv[2:]); print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent), "count",
                           "--length", "5", "--score", "3", "--match", "1", "--mismatch", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "[]"]


def test_one_count_recurrence():
    # every walk count comes from one sweep: the backward table is only curve's
    # emptiness filter, and binomials count only the uniform model's population
    # and, in search.py, the candidate seeds
    table_users = sorted(path.name for path in PACKAGE.glob("*.py")
                         if "CountTableD" in path.read_text())
    assert set(table_users) <= {"counting.py", "cli.py"}, table_users
    comb_users = sorted(path.name for path in PACKAGE.glob("*.py")
                        if "math.comb" in path.read_text())
    assert set(comb_users) <= {"counting.py", "search.py"}, comb_users
