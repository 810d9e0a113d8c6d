"""Source hygiene: no module keeps an import that it never reads, and no
module-level private helper is left that nothing reads."""

import ast
from pathlib import Path

import krc

SRC = Path(krc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


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


def private_definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level private function,
    class or assigned name; a dunder name is not a private helper."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def name_reads(tree: ast.Module):
    """(name, line) of each read of a name: a loaded variable, an attribute,
    an imported name, or a string naming one (as ``monkeypatch.setattr``
    takes it), dotted or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value.rsplit(".", 1)[-1], node.lineno


def orphaned_helpers(modules: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The module-level private names defined in ``modules`` (path: source)
    that no line of ``modules`` or ``readers`` reads outside the name's own
    definition."""
    trees = {path: ast.parse(source) for path, source in {**readers, **modules}.items()}
    reads: dict[str, set] = {}
    for path, tree in trees.items():
        for name, line in name_reads(tree):
            reads.setdefault(name, set()).add((path, line))
    return [
        f"{path}: {name} (line {first})"
        for path in modules
        for name, first, last in private_definitions(trees[path])
        if all(p == path and first <= line <= last for p, line in reads.get(name, ()))
    ]


def test_scan_finds_an_orphaned_helper():
    module = (
        "_LIMIT = 3\n_SEEN: dict = {}\n__all__ = []\n\n"
        "def _used():\n    return _LIMIT\n\n"
        "def _recursive(k):\n    return _recursive(k - 1)\n\n"
        "class _Patched:\n    pass\n"
    )
    readers = {"test.py": "from m import _used\nsetattr(m, '_Patched', None)\n"}
    assert orphaned_helpers({"m.py": module}, readers) == [
        "m.py: _SEEN (line 2)", "m.py: _recursive (line 8)",
    ]


def test_no_private_helper_is_left_unread():
    def sources(paths):
        return {str(path): path.read_text(encoding="utf-8") for path in sorted(paths)}

    assert orphaned_helpers(sources(SRC.glob("*.py")), sources(TESTS.rglob("*.py"))) == []
