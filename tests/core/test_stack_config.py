"""``StackConfig``: the shipped defaults are the measured ones, an
invalid configuration is rejected where it is written, and the number of
fields — and of the traditional stacks' options — is the one
``BENCH_abgb.json`` pins."""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.core.new_stack import StackConfig
from repro.monitoring.component import MonitoringPolicy

REPO = Path(__file__).resolve().parents[2]
if str(REPO / "benchmarks") not in sys.path:  # the benches import each other by module name
    sys.path.insert(0, str(REPO / "benchmarks"))

from run_all import code_lines, simplicity_meta  # noqa: E402


def test_the_measured_configuration_is_the_default_one(monkeypatch):
    # benchmarks/perf is frozen and spells its configuration out; every
    # number taken there must be a number about ``StackConfig()``.
    spec = importlib.util.spec_from_file_location(
        "perf_workloads", REPO / "benchmarks" / "perf" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    assert StackConfig(**workloads.STACK_CONFIG) == StackConfig()
    for workload in workloads.WORKLOADS:
        config = StackConfig(**workload.stack_config())
        assert config == StackConfig(dissemination=workload.dissemination)


@pytest.mark.parametrize(
    "bad",
    [
        {"relay_policy": "sometimes"},
        {"dissemination": "gossip"},
        {"abcast_window": 0},
        {"abcast_max_batch": 0},
        {"coalesce_delay": -1.0},
        {"max_segment_batch": 0},
        {"suspicion_timeout": 0.0},
    ],
    ids=lambda bad: next(iter(bad)),
)
def test_invalid_configuration_is_rejected_at_construction(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        StackConfig(**bad)


def test_disabling_values_are_valid():
    assert StackConfig(coalesce_delay=None).coalesce_delay is None


def test_abcast_batches_are_always_capped():
    with pytest.raises(ValueError, match="abcast_max_batch"):
        StackConfig(abcast_max_batch=None)


def test_knob_count_is_the_pinned_one():
    # A new field or option must re-pin ``meta`` on purpose; a deleted one
    # should lower it.
    baseline = json.loads((REPO / "BENCH_abgb.json").read_text())
    meta = simplicity_meta()
    for knobs in (
        "stack_config_fields",
        "traditional_knobs",
        "component_options",
        "monitoring_policy_fields",
    ):
        assert meta[knobs] == baseline["meta"][knobs], knobs


def test_monitoring_policy_is_one_timeout_and_a_threshold():
    # One large timeout decides exclusion, for silence and stuck output
    # alike; a field added here must be added on purpose.
    fields = [field.name for field in dataclasses.fields(MonitoringPolicy)]
    assert fields == ["exclusion_timeout", "votes_required"]


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    snippet = '''"""Module docstring,
on two lines."""

#: A documented constant.
LIMIT = 3  # a trailing comment keeps its line


class Box:
    """One line."""

    def open(self):
        """Two
        lines."""
        text = """a string that is not a docstring"""
        return text
'''
    assert code_lines(snippet) == 5
