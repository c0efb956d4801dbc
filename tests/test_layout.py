"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from another module, every public
top-level function or class is reached from the package itself, only
the oracle scans every subset of a finite space, the symbolic analysis
imports nothing from the window sampler, ``import pretop.cli`` stays
cheap and loads every name the benchmark's tracer wraps."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pretop"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"

# Public names that no module of the package uses, each kept on purpose.
UNREACHED = {
    "phc_report": "H-closed on finite spaces, to be reached by `check h-closed`",
    "sym_compact_at": "the symbolic H-set check is compactness at a set of the regularization",
    "sym_ray": "builds a parametric set on one ray, for the symbolic tests",
    "sym_grid": "builds a parametric set on one grid, for the symbolic tests",
    "sym_restrict": "symbolic subspaces, the counterpart of FinitePretop.restrict",
    "solve_axis": "perfbench/tracer.py wraps it by name; goes with ROADMAP item 1",
    "fit_defsets": "perfbench/tracer.py wraps it by name; goes with ROADMAP item 1",
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


def test_the_symbolic_analysis_imports_nothing_from_the_window_sampler():
    # every region of symbolic/analysis.py comes from one UTVPI projection;
    # the sampling of symbolic/solve.py stays with the maps of scale > 1
    tree = ast.parse((SRC / "symbolic" / "analysis.py").read_text(encoding="utf-8"))
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert [m for m in imported if m and m.split(".")[-1] == "solve"] == []


def _subset_scans(root):
    """``file:line`` of every call that walks all subsets of a finite space:
    ``.subsets()``, ``.kernels()`` or a ``range`` reading ``.full``.  The
    oracle's reference scans and the two ``FinitePretop`` methods
    themselves are exempt."""
    scans = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "oracle.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = {
            id(n)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef) and cls.name == "FinitePretop"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name in ("subsets", "kernels")
            for n in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in exempt:
                continue
            func = node.func
            walks = (isinstance(func, ast.Attribute) and func.attr in ("subsets", "kernels")) or (
                isinstance(func, ast.Name)
                and func.id == "range"
                and any(isinstance(n, ast.Attribute) and n.attr == "full" for arg in node.args for n in ast.walk(arg))
            )
            if walks:
                scans.append(f"{path.relative_to(root)}:{node.lineno}")
    return scans


def test_only_the_oracle_scans_every_subset():
    # such a scan is exponential in the points; the product routes decide
    # by singletons and least vicinities instead
    assert _subset_scans(SRC) == []


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


def _tracer_literal(name: str):
    """The literal bound to ``name`` at the top level of perfbench/tracer.py."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracer.py binds no {name}")


def test_every_name_the_tracer_wraps_resolves_after_importing_the_cli():
    # the tracer reads sys.modules after `import pretop.cli`; a name it
    # cannot find fails the traced benchmark run
    import pretop.cli  # noqa: F401

    def resolve(modname: str, path: str):
        obj = sys.modules[modname]
        for part in path.split("."):
            obj = getattr(obj, part)
        return obj

    for _, modname, path in _tracer_literal("FUNCTIONS"):
        assert callable(resolve(modname, path)), (modname, path)
    for modname, path in _tracer_literal("CACHES").values():
        assert hasattr(resolve(modname, path), "cache_info"), (modname, path)
