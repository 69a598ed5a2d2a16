"""Only the layers that own a suspicion timeout build a monitor.

A monitor is a reader of the failure detector: it is fed every
datagram's evidence and, by R3 (``HeartbeatFailureDetector._cadence``),
keeps the links it reads warm at its own timeout.  The new stack builds
two — the small-timeout star (``core/new_stack.py``) and the exclusion
monitor (``monitoring/``) — and the traditional stacks build their own;
any other layer reads the stack's ``suspicion_monitor`` instead of
paying for a third.  Walks every module under ``src/repro`` (read only)
for a call of ``.monitor(``, ``Monitor(`` or ``StarMonitor(``.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BUILDERS = ("fd/", "monitoring/", "traditional/", "core/new_stack.py")
CALLS = {"monitor", "Monitor", "StarMonitor"}


def _builds_a_monitor(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in CALLS
    return isinstance(func, ast.Name) and func.id in CALLS - {"monitor"}


def test_no_layer_outside_the_builders_makes_a_monitor():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module.startswith(BUILDERS):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _builds_a_monitor(node):
                found.append(f"{module}:{node.lineno}")
    assert found == [], found
