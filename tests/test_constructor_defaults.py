"""A constructor default is an option only if some caller leaves it.

``meta.component_options`` counts the defaulted constructor parameters
of ``World`` and of every component (``run_all.component_defaults``).
A default that every call overrides is not an option but a required
parameter spelled as one: the count would pin a number nobody chooses.
Walks every call in ``src/``, ``benchmarks/`` (``perf/`` included) and
``examples/`` (parsed, not run) and fails on each counted parameter that no
call omits.  Tests do not count: a default kept only for tests is kept
for no deployment.

A call counts for a class when it names it (``Name(...)`` or
``module.Name(...)``), or is ``super().__init__(...)`` in a class that
lists it as a base.  A call with ``*args`` or ``**kwargs`` counts as
passing every parameter.
"""

from __future__ import annotations

import ast
import inspect
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "benchmarks") not in sys.path:  # the benches import each other by module name
    sys.path.insert(0, str(REPO / "benchmarks"))

from run_all import component_defaults  # noqa: E402

CALLERS = ("src", "benchmarks", "examples")


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in the caller trees, by the class name it constructs."""
    by_name: dict[str, list[ast.Call]] = {}

    def visit(node: ast.AST, bases: tuple[str, ...]) -> None:
        if isinstance(node, ast.ClassDef):
            bases = tuple(
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))
            )
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                by_name.setdefault(func.id, []).append(node)
            elif isinstance(func, ast.Attribute):
                is_super = (
                    func.attr == "__init__"
                    and isinstance(func.value, ast.Call)
                    and isinstance(func.value.func, ast.Name)
                    and func.value.func.id == "super"
                )
                for name in bases if is_super else (func.attr,):
                    by_name.setdefault(name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, bases)

    for tree in CALLERS:
        for path in sorted((REPO / tree).rglob("*.py")):
            visit(ast.parse(path.read_text(), str(path)), ())
    return by_name


def _omits(call: ast.Call, cls: type, name: str) -> bool:
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return False
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return False
    positional = [
        param.name
        for param in inspect.signature(cls).parameters.values()
        if param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
    ]
    return name not in positional[: len(call.args)]


def never_omitted() -> list[str]:
    calls = _calls()
    return [
        f"{cls.__name__}({name}=)"
        for cls, name in component_defaults()
        if not any(_omits(call, cls, name) for call in calls.get(cls.__name__, []))
    ]


def test_every_counted_default_is_left_by_some_caller():
    assert never_omitted() == []
