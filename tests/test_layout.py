"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from another module, and every public
top-level function or class is reached from the package itself."""

import ast
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
