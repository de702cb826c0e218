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


def test_lane_format_has_one_home():
    # a sweep layer's lanes are packed and read only in counting.py: every other
    # module asks its readers, so a change to the packing is a change to one module
    lane_names = {"lane", "lane_width", "lane_sweep"}
    users = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name in lane_names:
                users.add(path.name)
    assert users == {"counting.py"}, f"modules that name the lane format: {sorted(users)}"


def _module_names(path: Path) -> set[str]:
    # the names a module defines itself: a def, a class or an assignment at its top level
    names = set()
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return names


def test_each_name_has_one_home():
    # the package root re-exports nothing, and every import names the module that
    # defines the name, so a rename or a deletion is a change to one module
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert ast.get_docstring(init) and len(init.body) == 1, \
        "__init__.py holds more than its docstring"
    defined = {path.stem: _module_names(path) for path in PACKAGE.glob("*.py")}
    misplaced = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 1:  # `from .mod import x`, or `from . import mod`
                module = node.module or "__init__"
            elif node.level == 0 and (node.module + ".").startswith("seedsense."):
                module = node.module.partition(".")[2] or "__init__"
            else:
                continue
            for alias in node.names:
                submodule = module == "__init__" and alias.name in defined
                if not submodule and alias.name not in defined.get(module, ()):
                    misplaced.append(f"{path.parent.name}/{path.name}:{node.lineno} "
                                     f"{alias.name} from {module}")
    assert not misplaced, f"names imported from a module that does not define them: {misplaced}"
