"""The scenario registry: every artefact the benches reproduce, by name.

A ``bench_*.py`` module defines its scenarios as functions named
``scenario_<name>``; each measures once and returns a
:class:`common.Result` (metrics, tables, named checks, traced worlds).
``SCENARIOS`` collects them all, so a bench cannot exist that the
renderers skip.  Two renderers read it: ``test_scenarios.py`` (pytest:
print every table, fail on a false check) and ``run_all.py`` (the
``BENCH_abgb.json`` trajectory, a subset by name).
"""

import importlib
from pathlib import Path

SCENARIOS = {
    name.removeprefix("scenario_"): fn
    for path in sorted(Path(__file__).parent.glob("bench_*.py"))
    for name, fn in vars(importlib.import_module(path.stem)).items()
    if name.startswith("scenario_")
}
