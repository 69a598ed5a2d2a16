#!/usr/bin/env python3
"""Headless Section-4 benchmark runner — emits ``BENCH_abgb.json``.

Renders the trajectory scenarios of the registry (``scenarios.py``: the
§4.1/§4.2/§4.3 benches and the stack-mechanism sweeps) without pytest,
as one machine-readable JSON document: per scenario, throughput,
a-delivery latency percentiles (p50/p95/p99), per-delivery message cost
broken down by layer, the scenario's *shape* flags — the named checks
the paper's arguments rest on — with the sentence each check made
(``shape_detail``), and ``perf.sched_events_processed``, the number of
simulator events the scenario executed.

All scenarios run in simulated time with fixed seeds, so every figure —
the event count included — is deterministic and the document is a pure
function of the tree: the committed baseline under
``benchmarks/baseline/`` can be compared exactly, with a small numeric
tolerance for safety.  Host time is not measured here; that is
``benchmarks/perf/``'s job.

Usage::

    python benchmarks/run_all.py [--out BENCH_abgb.json]
                                 [--check benchmarks/baseline/BENCH_abgb.json]
                                 [--tolerance 0.25]
                                 [--profile PROFILE.txt] [--profile-top 25]

``--check`` exits non-zero if any shape flag is false, any baseline
shape flag changed, a numeric metric drifted beyond the tolerance, any
``msgs_per_delivery`` or ``latency_ms`` figure regressed more than 10%
(improvements never fail — both are one-sided); it prints the
simplicity trajectory (``meta``) baseline → current either way.
``--profile`` additionally runs every scenario under cProfile and writes
a cumulative-time top-N table.  See ``docs/benchmarks.md``.
"""

from __future__ import annotations

import argparse
import ast
import cProfile
import dataclasses
import importlib
import inspect
import io
import json
import math
import pkgutil
import pstats
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for entry in (str(_HERE), str(_HERE.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from scenarios import SCENARIOS  # noqa: E402

import repro  # noqa: E402
from repro.core.new_stack import StackConfig  # noqa: E402
from repro.sim.process import Component  # noqa: E402
from repro.sim.scheduler import Scheduler  # noqa: E402
from repro.sim.world import World  # noqa: E402
from repro.traditional import EnsembleStack, IsisStack, PhoenixStack, RMPStack  # noqa: E402

SCHEMA = "bench-abgb/v6"

#: The registry's scenarios that make up the trajectory, in the order they run.
TRAJECTORY = (
    "sec41_complexity",
    "sec42_bank",
    "sec43_responsiveness",
    "pipelining",
    "payload_sweep",
    "dissemination_sweep",
    "fd_idle_sweep",
)


def _component_options() -> int:
    """Parameters with a default on the constructor of ``World`` and of
    every component class of the package (each constructor counted where
    it is defined)."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    classes = {
        cls
        for cls in subclasses(Component)
        if cls.__module__.startswith("repro.") and "__init__" in vars(cls)
    }
    return sum(
        1
        for cls in classes | {World}
        for param in inspect.signature(cls).parameters.values()
        if param.default is not param.empty
    )


def code_lines(source: str) -> int:
    """Non-blank lines of ``source`` that are neither comment-only nor
    part of a module, class or function docstring: a size that deleting
    documentation does not lower."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


def simplicity_meta() -> dict:
    """The size of what the numbers were taken on: configuration fields
    of the stack, the options the traditional stacks take (a constructor
    keyword other than ``is_member``, counted per stack; Totem inherits
    RMP's), the defaulted constructor parameters of the components and
    the world, non-blank source lines under ``src/repro`` (all of them,
    and the code lines among them, :func:`code_lines`) and non-blank
    lines of the benches that take them (``benchmarks/*.py``, the frozen
    ``benchmarks/perf/`` apart)."""

    def lines(paths) -> int:
        return sum(1 for path in paths for line in path.read_text().splitlines() if line.strip())

    src = list((_HERE.parent / "src" / "repro").rglob("*.py"))

    return {
        "stack_config_fields": len(dataclasses.fields(StackConfig)),
        "traditional_knobs": sum(
            1
            for stack in (IsisStack, PhoenixStack, RMPStack, EnsembleStack)
            for name, param in inspect.signature(stack).parameters.items()
            if param.kind is param.KEYWORD_ONLY and name != "is_member"
        ),
        "component_options": _component_options(),
        "src_lines": lines(src),
        "src_code_lines": sum(code_lines(path.read_text()) for path in src),
        "bench_lines": lines(_HERE.glob("*.py")),
    }


# ----------------------------------------------------------------------
# Shape-regression guard
# ----------------------------------------------------------------------

#: Never compared: ``shape_detail`` embeds measured values in prose for
#: actionable --check failures, and comparing the prose would just
#: duplicate the numeric checks with zero tolerance.
INFORMATIONAL_KEYS = ("shape_detail",)

#: One-sided regression bound for per-delivery wire cost (datagrams and
#: bytes alike): getting cheaper is always fine, getting >10% more
#: expensive fails the guard.
MSGS_REGRESSION = 0.10

#: One-sided regression bound for latency figures (``latency_ms`` blocks
#: — the p50/p95/p99 percentiles and the critical-path means): getting
#: faster is always fine, getting >10% slower fails the guard.  This is
#: the rule that pins the round-0 fast path's p50 win once it is in the
#: baseline.
LATENCY_REGRESSION = 0.10


def compare(
    baseline: dict,
    current: dict,
    tolerance: float,
    path: str = "",
) -> list[str]:
    """Every baseline key must exist in ``current``: bools/strings equal,
    numbers within relative ``tolerance``.  Extra current keys are fine
    (new metrics don't invalidate an old baseline).  Anything under a
    ``msgs_per_delivery`` or ``latency_ms`` key is a one-sided bound —
    only a >10% cost/latency *increase* is a regression, improvements
    never fail."""
    problems: list[str] = []
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            return [f"{path}: expected mapping, got {type(current).__name__}"]
        for key, expected in baseline.items():
            if key in INFORMATIONAL_KEYS:
                continue
            if key not in current:
                problems.append(f"{path}.{key}: missing from current run")
                continue
            problems += compare(expected, current[key], tolerance, f"{path}.{key}")
        return problems
    if isinstance(baseline, bool) or isinstance(baseline, str) or baseline is None:
        if current != baseline:
            problems.append(f"{path}: {baseline!r} -> {current!r}")
        return problems
    if isinstance(baseline, (int, float)):
        if isinstance(baseline, float) and math.isnan(baseline):
            return problems if (isinstance(current, float) and math.isnan(current)) else [
                f"{path}: nan -> {current!r}"
            ]
        if not isinstance(current, (int, float)):
            return [f"{path}: {baseline!r} -> {current!r}"]
        if "msgs_per_delivery" in path or "bytes_per_delivery" in path:
            if current > baseline * (1.0 + MSGS_REGRESSION):
                problems.append(
                    f"{path}: {baseline} -> {current} "
                    f"(per-delivery cost regressed > {MSGS_REGRESSION:.0%})"
                )
            return problems
        if "latency_ms" in path:
            if current > baseline * (1.0 + LATENCY_REGRESSION):
                problems.append(
                    f"{path}: {baseline} -> {current} "
                    f"(latency regressed > {LATENCY_REGRESSION:.0%})"
                )
            return problems
        scale = max(abs(baseline), 1e-9)
        if abs(current - baseline) / scale > tolerance:
            problems.append(
                f"{path}: {baseline} -> {current} (drift > {tolerance:.0%})"
            )
        return problems
    if isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            return [f"{path}: list changed: {baseline!r} -> {current!r}"]
        for i, (b, c) in enumerate(zip(baseline, current)):
            problems += compare(b, c, tolerance, f"{path}[{i}]")
        return problems
    return [f"{path}: unsupported baseline value {baseline!r}"]


def check(document: dict, baseline_path: Path, tolerance: float) -> list[str]:
    baseline = json.loads(baseline_path.read_text())
    problems = compare(baseline.get("scenarios", {}), document["scenarios"], tolerance,
                       path="scenarios")
    # The simplicity trajectory goes into every CI log.  One-sided: the
    # stacks may lose configuration fields and options, never gain one
    # unnoticed (``src_lines``, ``src_code_lines`` and ``bench_lines``
    # are recorded for the trajectory only).
    meta_before, meta_now = baseline.get("meta", {}), document.get("meta", {})
    for key in sorted(meta_now):
        print(f"[bench] meta.{key}: {meta_before.get(key)} -> {meta_now[key]}")
    for key, grew in (
        ("stack_config_fields", "StackConfig grew a knob"),
        ("traditional_knobs", "a traditional stack grew an option"),
        ("component_options", "a component constructor grew a defaulted parameter"),
    ):
        before, now = meta_before.get(key), meta_now.get(key)
        if None not in (before, now) and now > before:
            problems.append(f"meta.{key}: {now} exceeds the baseline's {before} — {grew}")
    for name, scenario in document["scenarios"].items():
        details = scenario.get("shape_detail", {})
        for flag, value in scenario.get("shape", {}).items():
            if value is not True:
                # Quote the measured value and bound — a bare flag name
                # is not actionable in a CI log.
                detail = details.get(flag)
                suffix = f" ({detail})" if detail else ""
                problems.append(f"scenarios.{name}.shape.{flag}: is false{suffix}")
    return problems


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_abgb.json"))
    parser.add_argument("--check", type=Path, default=None,
                        help="baseline JSON to guard against shape regressions")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="relative tolerance for numeric drift (default 0.25)")
    parser.add_argument("--profile", type=Path, default=None, metavar="FILE",
                        help="run scenarios under cProfile and write a top-N "
                             "cumulative-time table to FILE")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows in the --profile table (default 25)")
    parser.add_argument("--only", action="append", choices=TRAJECTORY,
                        help="run a subset of scenarios (repeatable)")
    parser.add_argument("--trace-dir", type=Path, default=None, metavar="DIR",
                        help="export one Chrome-trace JSON per scenario world "
                             "to DIR and fail on span-tree integrity errors")
    args = parser.parse_args(argv)

    profiler = cProfile.Profile() if args.profile is not None else None
    names = args.only or list(TRAJECTORY)
    document = {"schema": SCHEMA, "meta": simplicity_meta(), "scenarios": {}}
    trace_problems: list[str] = []
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        print(f"[bench] {name} ...", flush=True)
        events_before = Scheduler.total_events_processed
        wall_start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = SCENARIOS[name]()
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - wall_start
        events = Scheduler.total_events_processed - events_before
        document["scenarios"][name] = {
            "section": result.section,
            "metrics": result.metrics,
            "shape": result.shape,
            "shape_detail": result.shape_detail,
            "perf": {"sched_events_processed": events},
        }
        print(f"[bench]   {events} events in {wall * 1_000.0:.0f} ms", flush=True)
        if args.trace_dir is not None:
            for label, world in result.traced:
                for problem in world.spans.check_integrity():
                    trace_problems.append(f"{label}: {problem}")
                out = args.trace_dir / f"{label}.json"
                world.trace.export_chrome(out)
                print(f"[bench]   trace {label}: {len(world.spans)} spans "
                      f"-> {out}", flush=True)
    args.out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"[bench] wrote {args.out}")

    if profiler is not None:
        table = io.StringIO()
        stats = pstats.Stats(profiler, stream=table)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        args.profile.write_text(table.getvalue())
        print(f"[bench] wrote cProfile top-{args.profile_top} to {args.profile}")

    if trace_problems:
        print("[bench] SPAN-TREE INTEGRITY ERRORS:", file=sys.stderr)
        for problem in trace_problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if args.trace_dir is not None:
        print(f"[bench] span-tree integrity: OK ({args.trace_dir})")

    if args.check is not None:
        problems = check(document, args.check, args.tolerance)
        if problems:
            print(f"[bench] SHAPE REGRESSION vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
            return 1
        print(f"[bench] shape check vs {args.check}: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
