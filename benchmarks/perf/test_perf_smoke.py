"""Smoke test of the perf observatory: ``pytest benchmarks/perf``.

Outside tier-1's ``testpaths`` on purpose: it runs the benchmark (in its
``--quick`` cut) four times, about 45 s.  It guards the contract between
``BENCHMARK.json`` and what ``run.py`` reports, the exact repeatability
of everything on the simulated clock, and the coverage of the layer map.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
import run
from layers import HOST_LAYERS

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(*args: str) -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return done.stdout


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("perf")
    results = []
    for label in ("a", "b"):
        _run("--quick", "--out", str(out / f"{label}.json"))
        results.append(json.loads((out / f"{label}.json").read_text()))
    return results


def _host_clocked(metric: str) -> bool:
    return "host_" in metric or metric in ("setup_s", "trace.overhead_ratio")


def test_every_contract_metric_is_reported(quick_results):
    result = quick_results[0]
    assert result["correct"], result["problems"]
    assert [w.name for w in run.WORKLOADS] == WORKLOADS
    table = run.metric_table()
    for workload in WORKLOADS:
        block = result["workloads"][workload]
        reported = {**block["per_layer"], **block["end_to_end"]}
        # What the command reports is what the contract lists plus what
        # run.py says the contract cannot hold.
        assert set(reported) == set(table), "BENCHMARK.json and run.py name different metrics"
        for name, value in reported.items():
            assert NAME.fullmatch(name), name
            assert value is None or math.isfinite(value), (workload, name)
        for metric in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
            assert reported[metric["name"]] is not None, (workload, metric["name"])


def test_every_per_layer_metric_names_what_it_should_move(quick_results):
    moves = quick_results[0]["moves"]
    end_to_end = set(run.end_to_end_names())
    assert len(end_to_end) == 11
    for metric in CONTRACT["per_layer"]:
        assert set(moves[metric["name"]]) <= end_to_end, metric["name"]


def test_simulated_clock_values_repeat_exactly(quick_results):
    first, second = quick_results
    for workload in WORKLOADS:
        a, b = first["workloads"][workload], second["workloads"][workload]
        assert a["reference"] == b["reference"], workload
        assert a["ladder"] == b["ladder"], workload
        for metric, value in a["per_layer"].items():
            if not _host_clocked(metric):
                assert value == b["per_layer"][metric], (workload, metric)


def test_layer_map_covers_what_the_profile_touches(quick_results):
    for workload, block in quick_results[0]["workloads"].items():
        assert block["traced"]["unmapped_files"] == [], workload
        self_us = {
            layer: block["per_layer"][f"{layer}.host_self_us_per_op"]
            for layer in HOST_LAYERS
        }
        assert self_us["other"] < 0.05 * sum(self_us.values()), workload


@pytest.mark.parametrize(
    ("workload", "trace", "section"),
    [("bank_commute", "0", "end_to_end"), ("failover", "1", "per_layer")],
)
def test_contract_line(workload, trace, section):
    stdout = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", trace, "--quick")
    line = json.loads(stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in CONTRACT[section]}
    for metric in CONTRACT[section]:
        reading = line["metrics"][metric["name"]]
        assert reading["unit"] == metric["unit"]
        assert math.isfinite(reading["value"])
        if section == "end_to_end":
            assert reading["value"] > 0
