"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from another module, every public
top-level function or class and every public method of one is reached
from the package itself, only
the oracle scans every subset of a finite space, no module but
``symbolic/__init__.py`` imports the window sampler, the UTVPI core
``symbolic/utvpi.py`` imports no module that decides with it, only
``maps.py`` reads a map's tables, only ``finite.py`` a space's and
only ``regularize.py`` a space's cached regularization, no
module but ``record.py`` uses ``cached_property`` or writes an instance
``__dict__``, no module compares a value with a strand kind (``"atom"``,
``"ray"`` or ``"grid"``), since patterns, end classes and sets hold one
entry per axis and walk the axes in one loop, and ``import
pretop.cli`` stays cheap (no ``dataclasses``, ``inspect``, ``json`` or
oracle, one ``exec`` per value-class shape) and loads every name the
benchmark's tracer wraps, and every annotation of the package
resolves."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pretop
from pretop.record import lazy

SRC = Path(__file__).resolve().parent.parent / "src" / "pretop"
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"

# Public names that no module of the package uses, each kept on purpose.
UNREACHED = {
    "sym_compact_at": "the symbolic H-set check is compactness at a set of the regularization",
    "sym_restrict": "symbolic subspaces, the counterpart of FinitePretop.restrict",
    "solve_axis": "perfbench/tracer.py wraps it by name; goes with ROADMAP item 1",
    "fit_defsets": "perfbench/tracer.py wraps it by name; goes with ROADMAP item 1",
}

# Public methods that no module of the package uses, each kept on purpose;
# the tests use every one of them.
UNREACHED_METHODS = {
    "FinitePretop.adh_filter": "the adherence of a principal filter, as the paper writes it",
    "FinitePretop.converges": "filter convergence, the paper's primitive, for the filter tests",
    "FinitePretop.restrict": "finite subspaces, the counterpart of sym_restrict",
    "IntervalSet.bounded": "a named constructor beside single and at_least",
    "SpaceMap.identity": "builds the identity map for the map tests",
    "SpaceMap.constant": "builds a constant map for the map tests",
    "SpaceMap.is_surjective": "the onto condition of the extension lemmas, for the map tests",
    "FilterTower.stabilizes_at": "the level where a regularization tower stops, for the tower tests",
    "FilterTower.limit": "the kernel a regularization tower stops at, for the tower tests",
    "FilterTower.is_inherent": "the tower lemmas' inherence condition, for the tower tests",
    "DefFilterBase.principal": "the principal filter of a definable set, for the symbolic tests",
    "SymbolicPretop.template_at": "a point's vicinity template with only k free, for the symbolic tests",
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
    """A public top-level function or class, and a public method of a
    top-level class, must be named somewhere in the package outside its
    own definition; a re-export from an ``__init__`` does not count.  The
    check goes by name alone, so a method whose name another attribute
    shares (``ModelDocument.names`` beside ``FinitePretop.names``)
    escapes it."""
    defined, methods, named = {}, {}, set()
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
            if isinstance(node, ast.ClassDef):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        methods[f"{node.name}.{fn.name}"] = fn.name
                        own |= {id(n) for n in ast.walk(fn) if isinstance(n, ast.Attribute) and n.attr == fn.name}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unreached = {name for name in defined if name not in named}
    assert unreached == set(UNREACHED), sorted(unreached ^ set(UNREACHED))
    unreached = {qual for qual, name in methods.items() if name not in named}
    assert unreached == set(UNREACHED_METHODS), sorted(unreached ^ set(UNREACHED_METHODS))


def _annotated(module):
    """``(qualified name, object)`` of every function and class a module
    defines, and of every method, property getter and lazy function of
    those classes."""
    for name, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        qual = f"{module.__name__}.{name}"
        if isinstance(value, type):
            yield qual, value
            for attr, member in vars(value).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, lazy):
                    member = member.fn
                member = getattr(member, "__func__", member)  # a classmethod or staticmethod
                if inspect.isfunction(member):
                    yield f"{qual}.{attr}", member
        elif inspect.isfunction(inspect.unwrap(value)):
            yield qual, value


def test_every_annotation_resolves():
    # a name an annotation uses but its module never imports goes unseen
    # until something reads the hints, as typing.get_type_hints does
    broken = []
    for info in pkgutil.walk_packages(pretop.__path__, "pretop."):
        for qual, obj in _annotated(importlib.import_module(info.name)):
            try:
                typing.get_type_hints(obj)
            except Exception as e:  # noqa: BLE001 - every failure is reported
                broken.append(f"{qual}: {type(e).__name__}: {e}")
    assert broken == []


def _imports(path):
    """``line: names`` of every import in a module: the module path of a
    ``from`` import and each imported name, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, [node.module or ""] + [alias.name for alias in node.names]


def test_the_utvpi_core_imports_no_decision_module():
    # symbolic/utvpi.py is the one decision core: the decisions call its
    # public API, never the other way round
    deciders = {"analysis", "maps", "construct"}
    users = [
        line
        for line, names in _imports(SRC / "symbolic" / "utvpi.py")
        if any(deciders.intersection(name.split(".")) for name in names)
    ]
    assert users == []


def test_no_module_imports_the_window_sampler():
    # every symbolic answer, map continuity and validation included, comes
    # from the UTVPI core; symbolic/__init__.py alone loads symbolic/solve.py,
    # for the names the benchmark's tracer wraps
    users = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel == Path("symbolic", "__init__.py"):
            continue
        users += [f"{rel}:{line}" for line, names in _imports(path) if any("solve" in n.split(".") for n in names)]
    assert users == []


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


# Private tables and the one module that may read them.  The map cores
# skip the ``& full`` of the one-mask API because every space keeps its
# least vicinities inside ``full`` (the ``maps`` docstring); keeping the
# reads in one module keeps that invariant where it is stated.  A
# space's cached regularization is read only by ``partial_regularization``.
TABLE_READERS = {
    "_tables": "maps.py",
    "_adh_tables": "finite.py",
    "_sweep_tables": "finite.py",
    "_regularization": "regularize.py",
}


def _table_reads(root):
    """``file:line attr`` of every read of a table outside its module."""
    reads = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and TABLE_READERS.get(node.attr, rel) != rel:
                reads.append(f"{rel}:{node.lineno} {node.attr}")
    return reads


def test_only_their_own_modules_read_the_kernel_tables():
    assert _table_reads(SRC) == []


def test_a_table_read_outside_its_module_is_found(tmp_path):
    (tmp_path / "maps.py").write_text("f._tables[0]\n", encoding="utf-8")
    (tmp_path / "oracle.py").write_text("f._tables[1]\nsp._regularization\nsp._adh_tables\n", encoding="utf-8")
    assert sorted(_table_reads(tmp_path)) == ["oracle.py:1 _tables", "oracle.py:2 _regularization", "oracle.py:3 _adh_tables"]


STRAND_KINDS = {"atom", "ray", "grid"}


def _kind_comparisons(root):
    """``file:line`` of every comparison with a strand-kind literal, also
    as a member of a tuple, list or set compared against."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            operands += [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set)) for e in o.elts]
            if any(isinstance(o, ast.Constant) and o.value in STRAND_KINDS for o in operands):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_no_module_compares_a_value_with_a_strand_kind():
    assert _kind_comparisons(SRC) == []


def test_a_comparison_with_a_strand_kind_is_found(tmp_path):
    (tmp_path / "space.py").write_text(
        'if pat.kind == "atom":\n    pass\nok = "grid" != e.kind\nok = kind in ("ray", "grid")\nok = kind == "nat"\n',
        encoding="utf-8",
    )
    assert _kind_comparisons(tmp_path) == ["space.py:1", "space.py:3", "space.py:4"]


# Writing an instance's ``__dict__``, as ``functools.cached_property`` does,
# makes CPython build a real dict for it, and every field read then misses
# the inline-values fast path; ``record`` stores fields and ``lazy`` values
# with ``object.__setattr__`` instead.
_DICT_WRITES = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _is_instance_dict(node) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__") or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "vars" and node.args
    )


def _dict_stores(root):
    """``file:line`` of every use of ``cached_property`` and every write to
    an instance dict, outside ``record.py``."""
    found = []
    for path in sorted(root.rglob("*.py")):
        rel = str(path.relative_to(root))
        if rel == "record.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            stores = (
                isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) and _is_instance_dict(node.value)
            )
            calls = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DICT_WRITES
                and _is_instance_dict(node.func.value)
            )
            if named == "cached_property" or stores or calls:
                found.append(f"{rel}:{node.lineno}")
    return found


def test_no_module_but_record_writes_an_instance_dict():
    assert _dict_stores(SRC) == []


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


def _fresh(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter; -S keeps site hooks (.pth
    files) from importing modules of their own."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env, check=True).stdout


def test_cli_start_up_loads_no_dataclasses_inspect_json_or_oracle():
    # json is loaded only by a report that prints JSON
    code = (
        "import sys, pretop.cli\n"
        "print(*[m for m in ('dataclasses', 'inspect', 'json', 'pretop.oracle') if m in sys.modules])\n"
    )
    assert _fresh(code).split() == []


def test_cli_start_up_compiles_each_record_shape_once():
    # record's exec is counted from before any value class is built; a
    # shape is (fields, compared fields, has __post_init__)
    code = (
        "import builtins, sys, pretop.record\n"
        "calls = []\n"
        "def counting_exec(source, env):\n"
        "    calls.append(source)\n"
        "    builtins.exec(source, env)\n"
        "pretop.record.exec = counting_exec\n"
        "import pretop.cli\n"
        "classes = [v for m in list(sys.modules.values()) if m.__name__.startswith('pretop')\n"
        "           for v in vars(m).values() if isinstance(v, type) and '__record_fields__' in vars(v)]\n"
        "shapes = {(len(c.__record_fields__), len(c.__record_compared__), hasattr(c, '__post_init__'))\n"
        "          for c in set(classes)}\n"
        "print(len(calls), len(shapes), len(set(classes)))\n"
    )
    calls, shapes, classes = map(int, _fresh(code).split())
    assert calls == shapes < classes


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


def _hard_exits(root):
    """``file:function`` of every ``._exit`` reference, by the top-level
    definition it sits in."""
    found = []
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = getattr(top, "name", "<module>")
            found += [
                f"{path.relative_to(root)}:{where}"
                for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "_exit"
            ]
    return found


def test_only_the_cli_entry_point_exits_without_teardown():
    # os._exit skips every caller's atexit handlers and unflushed streams:
    # only the `pretop` process itself may end that way, never a library
    # path such as run_command, which tests and the benchmark call in-process
    assert _hard_exits(SRC) == ["cli.py:main"]
