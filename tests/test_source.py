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


def test_trivial_command_loads_no_pool_and_no_third_party_package():
    # a command that opens no pool does not import concurrent.futures: it is
    # imported when a pool opens, and loading it costs every command's start-up.
    # Nor does any command load a package from outside the standard library: the
    # package declares no runtime dependency (what the interpreter loads before the
    # command, such as site hooks, does not count). Answers are integer pairs, so no
    # command loads fractions, or the decimal module that fractions imports. The
    # records are built without dataclasses, so no command loads it or inspect
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "from seedsense.cli import run; run(sys.argv[2:]); "
            "roots = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(r for r in roots if r in ('concurrent', 'multiprocessing', "
            "'fractions', 'decimal', 'dataclasses', 'inspect') "
            "or r not in sys.stdlib_module_names and r != 'seedsense'))")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent), "count",
                           "--length", "5", "--score", "3", "--match", "1", "--mismatch", "1"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["1", "[]"]


def test_no_module_imports_dataclasses():
    # every record derives from alignments.Record; importing dataclasses would load
    # inspect, ast, dis and tokenize at every command's start-up
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert not found, f"dataclasses imported at: {found}"


def test_one_count_recurrence():
    # every walk count comes from one sweep: CountTableD, which curve reads, holds no
    # recurrence of its own (no method loops; it reads profile_counts), and binomials
    # count only the uniform model's population
    table_users = sorted(path.name for path in PACKAGE.glob("*.py")
                         if "CountTableD" in path.read_text())
    assert set(table_users) <= {"counting.py", "cli.py"}, table_users
    tree = ast.parse((PACKAGE / "counting.py").read_text())
    table = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "CountTableD")
    loops = [f"counting.py:{node.lineno}" for node in ast.walk(table)
             if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp))]
    assert not loops, f"loops in CountTableD: {loops}"
    calls = {node.func.id for node in ast.walk(table)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "profile_counts" in calls, "CountTableD does not read profile_counts"
    comb_users = sorted(path.name for path in PACKAGE.glob("*.py")
                        if "math.comb" in path.read_text())
    assert set(comb_users) <= {"counting.py"}, comb_users


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


def test_modules_keep_to_their_boundaries():
    # a module reads another only through its public names (selfcheck, which checks
    # the internals against their oracles, excepted), and the exact program draws no
    # samples: sensitivity and search import nothing from sampling
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        own = path.stem == "selfcheck"
        siblings = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    module, name = (node.module, alias.name) if node.module else (alias.name, "")
                    if path.stem in ("sensitivity", "search") and module == "sampling":
                        found.append(f"{path.name}:{node.lineno} imports sampling")
                    elif name.startswith("_") and not own:
                        found.append(f"{path.name}:{node.lineno} imports {module}.{name}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings and node.attr.startswith("_") and not own):
                found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    assert not found, f"imports across module boundaries: {found}"


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


def _defined_public(tree: ast.Module) -> list[tuple[str, str]]:
    # (name, label) for each public top-level def or class, and each public method,
    # property or annotated field of a public class
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    found.append((name, f"{node.name}.{name}"))
    return found


def _named(tree: ast.AST) -> set[str]:
    # every name a tree reads: a Name, an Attribute, an import alias or a call keyword;
    # a field's own annotation in its class body defines it and does not read it
    fields = {id(member.target) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for member in node.body if isinstance(member, ast.AnnAssign)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and id(node) not in fields:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
    return names


def test_every_public_name_has_a_reader():
    # a public name that only the tests read is surface with no user: each must be
    # named by a package module, by a benchmark script (which this test only reads),
    # or by the README's Library example
    root = Path(__file__).parents[1]
    readme = (root / "README.md").read_text().partition("\n## Library\n")[2]
    library = readme.partition("```python\n")[2].partition("```")[0]
    assert library, "README has no Library code block"
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    readers = _named(ast.parse(library))
    for path in sorted((root / "benchmarks").glob("*.py")):
        readers |= _named(ast.parse(path.read_text(), filename=str(path)))
    for tree in trees.values():
        readers |= _named(tree)
    unread = [f"{path.stem}.{label}" for path, tree in trees.items()
              for name, label in _defined_public(tree) if name not in readers]
    assert not unread, f"public names that only the tests read: {unread}"
