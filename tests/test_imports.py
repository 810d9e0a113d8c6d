"""Source hygiene: no module keeps an import that it never reads."""

import ast
from pathlib import Path

import krc

SRC = Path(krc.__file__).resolve().parent


def unread_imports(source: str) -> list[str]:
    """Top-level names a module imports but never reads.  ``__future__``
    imports bind no name; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scan_finds_an_unread_import():
    source = "from os import path, sep\nimport numpy.linalg\nprint(sep)\n"
    assert unread_imports(source) == ["path (line 1)", "numpy (line 2)"]
    assert unread_imports("from __future__ import annotations\nimport numpy as np\nnp.e\n") == []


def test_no_module_imports_a_name_it_never_reads():
    unread = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unread_imports(path.read_text(encoding="utf-8")))
    }
    assert unread == {}
