"""Source hygiene: no module keeps an import that it never reads, no
module-level private helper is left that nothing reads, no public helper
is left that only the tests read, and ``import krc`` loads no scipy.stats."""

import ast
import os
import subprocess
import sys
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
    trees, reads = read_index(modules, readers)
    return [
        f"{path}: {name} (line {first})"
        for path in modules
        for name, first, last in private_definitions(trees[path])
        if all(p == path and first <= line <= last for p, line in reads.get(name, ()))
    ]


def read_index(modules: dict[str, str], readers: dict[str, str]):
    """The parsed trees of ``modules`` and ``readers`` (path: source), and
    each name's reads across them, as a set of (path, line)."""
    trees = {path: ast.parse(source) for path, source in {**readers, **modules}.items()}
    reads: dict[str, set] = {}
    for path, tree in trees.items():
        for name, line in name_reads(tree):
            reads.setdefault(name, set()).add((path, line))
    return trees, reads


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


def sources(paths) -> dict[str, str]:
    return {str(path): path.read_text(encoding="utf-8") for path in sorted(paths)}


def test_no_private_helper_is_left_unread():
    assert orphaned_helpers(sources(SRC.glob("*.py")), sources(TESTS.rglob("*.py"))) == []


def public_definitions(tree: ast.Module):
    """(name, first line, last line) of each module-level public function or
    class, and of each public method of a module-level class, named
    ``Class.method``."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if not isinstance(node, (*functions, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node.lineno, node.end_lineno
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, functions) and not member.name.startswith("_"):
                yield f"{node.name}.{member.name}", member.lineno, member.end_lineno


def unreached_helpers(modules: dict[str, str], readers: dict[str, str], kept=()) -> list[str]:
    """The public definitions in ``modules`` (path: source), apart from those
    named in ``kept``, that no line of ``modules`` or ``readers`` reads
    outside the definition itself.

    A read is matched by name alone, as in :func:`name_reads`: a method
    counts as read when any attribute of its name is, so a helper whose name
    collides with a read (``residual``, say) passes.
    """
    trees, reads = read_index(modules, readers)
    return [
        f"{path}: {name} (line {first})"
        for path in modules
        for name, first, last in public_definitions(trees[path])
        if name not in kept
        and all(
            p == path and first <= line <= last
            for p, line in reads.get(name.rsplit(".", 1)[-1], ())
        )
    ]


# Public helpers that neither the package nor the benchmark reads, kept on
# purpose.
KEPT = {
    # They state results of the paper or feed acceptance criteria.
    "oracle_beta",
    "expansion_diagnostic",
    "diagonal_group_inverse_approx",
    "diagonal_approx_error",
    "group_inverse_residuals",
    "generate_season_dataset",
    "truth_probability",
    # Acceptance criterion 6 reads a sweep table's cells through it.
    "SweepTable.cell",
}


def test_scan_finds_a_test_only_helper():
    module = (
        "def used():\n    return 1\n\n"
        "def only_tested():\n    return only_tested\n\n"
        "def kept():\n    pass\n\n"
        "class Box:\n    def size(self):\n        return used()\n\n"
        "    def peek(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n"
    )
    readers = {"bench.py": "from m import Box\nBox().size()\n"}
    assert unreached_helpers({"m.py": module}, readers, kept={"kept"}) == [
        "m.py: only_tested (line 4)", "m.py: Box.peek (line 14)",
    ]


def test_no_public_helper_is_read_only_by_tests():
    modules = sources(path for path in SRC.glob("*.py") if path.name != "__init__.py")
    readers = sources((TESTS.parent / "benchmarks").glob("*.py"))
    assert readers
    assert unreached_helpers(modules, readers, KEPT) == []


def test_import_krc_loads_no_scipy_stats():
    # scipy.stats would be about half of every krc process's start-up; the
    # Anderson-Darling statistic needs only scipy.special.
    code = "import sys, krc, krc.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.strip() == "[]"
