"""The scenario registry rendered as a pytest run: one test per scenario
prints the scenario's tables and fails with the detail of every false
check.

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/perf -q
"""

import pytest
from scenarios import SCENARIOS


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_scenario(name, capsys):
    result = SCENARIOS[name]()
    with capsys.disabled():
        for table in result.tables:
            print(table)
    false = [
        f"{flag}: {result.shape_detail[flag]}"
        for flag, holds in result.shape.items()
        if not holds
    ]
    assert not false, "\n".join(false)
