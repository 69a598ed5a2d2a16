"""No module imports a name it never uses (pyflakes' F401, offline).

Walks every module under ``src``, ``tests``, ``benchmarks`` and
``examples`` (read only).  A name counts as used if it appears as a
``Name`` anywhere in its module, inside a string annotation, or in
``__all__``.  ``__future__`` imports are skipped, and an import line
marked ``# noqa: F401`` (or a bare ``# noqa``) is honoured.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "tests", "benchmarks", "examples")
NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b")


def _imported(tree: ast.Module):
    """``(bound name, line, statement)`` of every import in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno, node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, alias.lineno, node


def _string_names(node: ast.AST) -> set[str]:
    """Names inside the string constants under ``node`` (forward references)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if annotation is not None:
            used |= _string_names(annotation)
        targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
        if getattr(node, "value", None) is not None and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            used |= {
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            }
    return used


def unused_imports(path: Path, root: Path = ROOT) -> list[str]:
    """``path:line: name`` for every import of ``path`` nothing uses."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    used = _used(tree)
    found = []
    for name, line, statement in _imported(tree):
        marked = {line, statement.lineno, statement.end_lineno}
        if name in used or any(NOQA.search(lines[n - 1]) for n in marked):
            continue
        found.append(f"{path.relative_to(root)}:{line}: {name}")
    return found


def test_no_module_imports_a_name_it_never_uses():
    found = [
        hit
        for tree in TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        for hit in unused_imports(path)
    ]
    assert found == []


def test_the_check_catches_a_planted_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "from typing import TYPE_CHECKING, Callable, Iterable\n"
        "import json  # noqa: F401\n"
        "import sys  # noqa: E402\n"
        "if TYPE_CHECKING:\n"
        "    from pathlib import Path\n"
        "__all__ = ['Iterable']\n"
        "def f(p: 'Path') -> None: ...\n"
    )
    assert unused_imports(planted, root=tmp_path) == [
        "planted.py:2: os", "planted.py:3: Callable", "planted.py:5: sys",
    ]
