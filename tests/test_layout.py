"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from another module, every public
top-level function or class is reached from the package itself, and
``import pretop.cli`` stays cheap."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pretop"

# Public names that no module of the package uses, each kept on purpose.
UNREACHED = {
    "phc_report": "H-closed on finite spaces, to be reached by `check h-closed`",
    "sym_compact_at": "the symbolic H-set check is compactness at a set of the regularization",
    "sym_f_sharp": "the symbolic small-image operator, the counterpart of maps.f_sharp",
    "sym_ray": "builds a parametric set on one ray, for the symbolic tests",
    "sym_grid": "builds a parametric set on one grid, for the symbolic tests",
    "sym_restrict": "symbolic subspaces, the counterpart of FinitePretop.restrict",
    "sym_separated": "the least parameter separating two sets, a tested companion of sym_hausdorff",
}

# Modules that import ``dataclasses`` when they load, each kept on purpose.
# Value classes use ``pretop.record.record``: ``dataclasses`` spends about
# 1 ms per class in six ``exec`` calls and imports ``inspect``: about 60%
# of ``import pretop.cli`` before. An import inside a function (the error
# path of ``record``) runs only when called, so it is not counted.
DATACLASSES_USERS = {
    "oracle.py": "perfbench/oracle_child.py calls dataclasses.replace on oracle.Suite, "
    "and the oracle is loaded only for `pretop oracle`",
}


def test_no_module_imports_a_private_name():
    leaks = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                rel = path.relative_to(SRC)
                leaks += [f"{rel}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert leaks == []


def test_every_public_name_is_reached_or_allowed():
    """A public top-level function or class must be named somewhere in the
    package outside its own definition; a re-export from an ``__init__``
    does not count."""
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()  # a definition naming itself, as a recursive call does
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined[node.name] = str(path.relative_to(SRC))
                own |= {id(n) for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == node.name}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in own:
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unreached = {name for name in defined if name not in named}
    assert unreached == set(UNREACHED), sorted(unreached ^ set(UNREACHED))


def _import_time_nodes(tree):
    """The nodes of a module that run when it loads: all but function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_allowed_modules_import_dataclasses():
    users = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in _import_time_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
            ):
                users.add(str(path.relative_to(SRC)))
    assert users == set(DATACLASSES_USERS)


def test_cli_start_up_loads_no_dataclasses_inspect_or_oracle():
    # -S keeps site hooks (.pth files) from importing modules of their own
    code = (
        "import sys, pretop.cli\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'pretop.oracle') if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True)
    assert done.stdout.split() == []
