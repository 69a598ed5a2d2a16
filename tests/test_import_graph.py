"""A group run imports only the modules it builds.

Only three facades import on behalf of their callers: ``repro`` (the
public API), ``repro.traditional`` (its five stacks) and
``repro.replication`` (the helpers docs/api.md documents).  Every other
package ``__init__`` is its docstring alone, so importing one module of
a package loads that module and nothing beside it.  Each run below
starts a fresh interpreter, so what it reports is what the run itself
loaded.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

#: Packages whose ``__init__`` re-exports names on purpose.
FACADES = {"repro", "repro.traditional", "repro.replication"}

#: Modules and packages a plain ``StackConfig()`` group run never builds,
#: so never loads.
NOT_ON_THE_RUN_PATH = (
    "repro.abcast.sequencer",
    "repro.abcast.token_ring",
    "repro.abcast.interfaces",
    "repro.core.composed",
    "repro.stack",
    "repro.traditional",
    "repro.explore",
    "repro.replication",
)

RUN_SCRIPT = """
import json
import sys

from repro import StackConfig, World, bank_relation, build_new_group
from repro.gbcast.conflict import DEPOSIT, WITHDRAWAL

world = World(seed=5)
stacks = build_new_group(world, 3, bank_relation(), StackConfig())
first = stacks["p00"].gbcast
first.gbcast_payload("deposit", DEPOSIT)
first.gbcast_payload("withdrawal", WITHDRAWAL)
world.run_for(500.0)
print(json.dumps({
    "delivered": [len(stack.gbcast.delivered_log) for stack in stacks.values()],
    "modules": sorted(name for name in sys.modules if name.split(".")[0] == "repro"),
}))
"""


def _run_group() -> dict:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", RUN_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return json.loads(done.stdout)


def _off_the_run_path(module: str) -> bool:
    return any(
        module == entry or module.startswith(entry + ".") for entry in NOT_ON_THE_RUN_PATH
    )


def test_a_plain_group_run_loads_only_what_it_builds():
    run = _run_group()
    assert run["delivered"] == [2, 2, 2]
    assert [name for name in run["modules"] if _off_the_run_path(name)] == []


def test_only_the_facades_import_in_their_init():
    for init in sorted(PACKAGE.rglob("__init__.py")):
        package = ".".join(init.parent.relative_to(PACKAGE.parent).parts)
        if package in FACADES:
            continue
        tree = ast.parse(init.read_text())
        imports = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        ]
        assert imports == [], f"{init.relative_to(REPO_ROOT)} imports on lines {imports}"
