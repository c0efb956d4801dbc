"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from another module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pretop"


def test_no_module_imports_a_private_name():
    leaks = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                rel = path.relative_to(SRC)
                leaks += [f"{rel}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert leaks == []
