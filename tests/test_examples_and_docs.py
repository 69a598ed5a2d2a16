"""Smoke tests: every example script runs, and the README snippets work.

Keeps the documentation honest — if an example or a documented snippet
breaks, the suite fails.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_clean(script):
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_examples_exist_and_cover_quickstart():
    names = {p.stem for p in EXAMPLES}
    assert "quickstart" in names
    assert len(names) >= 3  # the deliverable floor; we ship more


def test_readme_quickstart_snippet():
    from repro import GroupCommunication, World, build_new_group

    world = World(seed=7)
    stacks = build_new_group(world, 3)
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    world.start()

    apis["p00"].abcast("totally ordered")
    apis["p01"].rbcast("cheap, unordered")
    apis["p02"].remove("p01")

    world.run_for(1_000.0)
    payloads = apis["p00"].delivered_payloads()
    assert sorted(payloads) == ["cheap, unordered", "totally ordered"]
    assert apis["p00"].view.members == ("p00", "p02")
    assert apis["p00"].view.id == 1


def test_readme_conflict_relation_snippet():
    from repro import ConflictRelation, World, build_new_group

    rel = ConflictRelation.build(
        ["deposit", "withdrawal"],
        [("deposit", "withdrawal"), ("withdrawal", "withdrawal")],
    )
    world = World(seed=1)
    stacks = build_new_group(world, 3, conflict=rel)
    world.start()
    for i in range(5):
        stacks["p00"].gbcast.gbcast_payload(("d", i), "deposit")
    assert world.run_until(
        lambda: all(
            len([m for m, _p in s.gbcast.delivered_log if m.msg_class == "deposit"]) == 5
            for s in stacks.values()
        ),
        timeout=30_000,
    )
    assert world.metrics.counters.get("consensus.proposals") == 0


def test_package_docstring_snippet():
    import repro

    assert "abcast" in repro.__doc__
    assert repro.__version__ == "1.0.0"


@pytest.mark.parametrize("args", [[], ["5"], ["explorer"]], ids=["none", "seed", "typo"])
def test_python_dash_m_repro_has_one_subcommand(args):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert result.stderr.startswith("usage: python -m repro explore")


# ----------------------------------------------------------------------
# docs/ cannot drift from the StackConfig dataclass
# ----------------------------------------------------------------------
def _stack_config_fields():
    import dataclasses

    from repro import StackConfig

    return {field.name: field for field in dataclasses.fields(StackConfig)}


def test_api_doc_table_is_the_stack_config_dataclass():
    import dataclasses

    api = (REPO / "docs" / "api.md").read_text()
    section = api.split("## Stack tuning", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| `(.+?)` \|", section, re.MULTILINE))
    fields = _stack_config_fields()
    assert set(rows) == set(fields)
    for name, field in fields.items():
        if field.default_factory is not dataclasses.MISSING:
            shown = f"{field.default_factory.__name__}()"
        elif isinstance(field.default, str):
            shown = f'"{field.default}"'
        else:
            shown = repr(field.default)
        assert rows[name] == shown, f"docs/api.md: {name} defaults to {shown}"


@pytest.mark.parametrize("doc", sorted((REPO / "docs").glob("*.md")), ids=lambda p: p.name)
def test_docs_name_only_real_stack_config_fields(doc):
    # ``StackConfig.x`` and ``StackConfig(x=...)`` anywhere under docs/
    # must name a field that exists: a deleted knob cannot linger.
    text = doc.read_text()
    named = set(re.findall(r"StackConfig\.(\w+)", text))
    for call in re.findall(r"StackConfig\(([^)]*)\)", text):
        named.update(re.findall(r"(\w+)\s*=", call))
    assert named <= set(_stack_config_fields()), named - set(_stack_config_fields())


@pytest.mark.parametrize(
    "package, heading",
    [
        ("repro.gbcast.conflict", "Conflict relations (`repro.gbcast.conflict`)"),
        ("repro.replication", "Replication (`repro.replication`)"),
    ],
    ids=["gbcast", "replication"],
)
def test_api_doc_tables_name_only_real_attributes(package, heading):
    # The name opening each row of these docs/api.md tables must be an
    # attribute of the package: a deleted class cannot linger.
    import importlib

    api = (REPO / "docs" / "api.md").read_text()
    section = api.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^\| `(\w+)", section, re.MULTILINE)
    module = importlib.import_module(package)
    assert names
    assert [name for name in names if not hasattr(module, name)] == []


# ----------------------------------------------------------------------
# docs/ cannot drift from the command line
# ----------------------------------------------------------------------
#: ``python -m repro ARGS`` in backticks or on a ``$`` console line.
QUOTED_COMMAND = re.compile(r"(?:`|\$ )(?:\S+=\S+ )*python -m repro((?: [^`\s]+)*)")


def _quoted_commands():
    for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        for line in doc.read_text().splitlines():
            for tail in QUOTED_COMMAND.findall(line):
                yield doc.name, tail.split()


def test_docs_quote_only_commands_the_cli_parses():
    # Every ``python -m repro ...`` in README.md and docs/ goes through
    # the parser the command line uses: a deleted subcommand or option
    # cannot linger.
    from repro.explore.cli import build_parser

    commands = list(_quoted_commands())
    assert len(commands) >= 4
    for doc, args in commands:
        command = f"{doc}: python -m repro {' '.join(args)}"
        assert args[:1] == ["explore"], command
        try:
            build_parser().parse_args(args[1:])
        except SystemExit:
            pytest.fail(command)
