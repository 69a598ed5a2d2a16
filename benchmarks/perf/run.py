"""Perf observatory: open-loop load on the full Fig. 9 stack, two clocks.

    python benchmarks/perf/run.py [--seed 1] [--out FILE] [--quick]
    python benchmarks/perf/run.py --compare A.json B.json
    python benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

The first form runs every workload (reference run x rounds, rate ladder,
traced run), prints every metric by name with its unit, checks the
program's outputs and writes one JSON result plus a Chrome trace of the
benchmark's own spans.  The second compares two results.  The third is
the form ``BENCHMARK.json`` names: one workload, one JSON line last on
stdout, end-to-end metrics with ``--trace 0`` and per-layer metrics with
``--trace 1``.

Every measurement runs in a child process of its own with
``PYTHONHASHSEED=0``, so set-up (imports included) is paid and timed
once per measurement and simulated-clock numbers repeat exactly.
See README.md for the workloads, the metrics and what each should move.

``BENCHMARK.json`` at the root of the repo is the one table of the
metrics it can hold (name, unit, direction, bound); ``OUTSIDE_CONTRACT``
below holds the rest.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # process start, before every other import: setup_s counts them

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from layers import REPRO_DIR, moves_of  # noqa: E402
from workloads import BY_NAME, WORKLOADS  # noqa: E402

_HERE = Path(__file__).resolve().parent
DEFAULT_OUT = _HERE / "out" / "result.json"
SCHEMA = 1

#: Reference runs per workload in the whole command; one with ``--quick``.
ROUNDS = 3
#: Children that set up and exit, after each reference run: ``setup_s``
#: is the median of the run's set-up and theirs, over all rounds.
SETUPS_PER_RUN = 3

#: Metrics ``BENCHMARK.json`` cannot hold, with the bound ``--compare``
#: applies (share of A's value; 0.0 = any worsening counts).  Its
#: end-to-end metrics must be numbers, never 0, on every workload, and
#: spread less than 25 % from seed to seed: the knee has no ladder on
#: ``failover``, outage and catch-up exist only there, the failed share
#: is 0 (the contract's ``attempted``/``failed`` carry it), and p99 on
#: ``failover`` is one outage long or not at all (185-990 ms over ten
#: seeds).  The two per-layer ones exist only on ``failover`` too.
OUTSIDE_CONTRACT = {
    "sim_latency_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "sim_max_rate_ops_s": {"unit": "ops/s", "better": "higher", "bound": 0.0},
    "sim_outage_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "sim_catchup_ms": {"unit": "ms", "better": "lower", "bound": 0.10},
    "failed_ops_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "fd.detection_ms": {"unit": "ms", "better": "lower"},
    "membership.rejoin_ms": {"unit": "ms", "better": "lower"},
}
#: Interpreter time (median of the rounds, spread judged by ``--compare``);
#: every other end-to-end metric is simulated time or a count and exact.
HOST_METRICS = ("setup_s", "host_ops_per_s", "host_peak_rss_mb")
#: Reference-run fields that must be bit-identical between rounds.
EXACT = (
    "ops",
    "completed",
    "failed",
    "latency_samples",
    "sim_latency_p50_ms",
    "sim_latency_p99_ms",
    "sim_latency_p50_by_origin_ms",
    "sim_outage_ms",
    "sim_catchup_ms",
    "wire_msgs_per_op",
    "wire_bytes_per_op",
    "failed_ops_share",
    "fifo_inversions",
    "events",
    "sim_end_ms",
    "counters",
)


@functools.cache
def contract() -> dict:
    return json.loads((_HERE.parents[1] / "BENCHMARK.json").read_text())


@functools.cache
def metric_table() -> dict[str, dict]:
    """Every metric by name: unit, better and, end to end, bound."""
    listed = contract()["end_to_end"] + contract()["per_layer"]
    return {**{entry["name"]: entry for entry in listed}, **OUTSIDE_CONTRACT}


def end_to_end_names() -> list[str]:
    return [name for name, entry in metric_table().items() if "bound" in entry]


# ----------------------------------------------------------------------
# The benchmark's own spans
# ----------------------------------------------------------------------
class HostSpans:
    """Spans around the benchmark's calls into the program: name, start,
    end (``perf_counter`` seconds, one clock for parent and children on
    this host) and the enclosing span.  Kept in memory until exit."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(name)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()


def write_chrome_trace(path: Path, lanes: list[tuple[str, list[dict]]]) -> None:
    """One lane per child process, complete ("X") events in microseconds."""
    events = []
    for lane, (label, spans) in enumerate(lanes):
        events.append({"ph": "M", "name": "thread_name", "pid": 0, "tid": lane,
                       "args": {"name": label}})
        events += [
            {"ph": "X", "name": s["name"], "pid": 0, "tid": lane,
             "ts": (s["start"] - _T0) * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
             "args": {"parent": s["parent"]}}
            for s in spans
        ]
    path.write_text(json.dumps({"traceEvents": events}))


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_main(spec: dict) -> int:
    """One measurement in this process; one JSON document on stdout."""
    if hasattr(os, "sched_setaffinity"):
        # One CPU, the highest-numbered allowed: CPU 0 takes the
        # interrupts and, usually, the parent and whoever launched it
        # (here its chunk times vary 17 %, CPU 1's 8 %).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spans = HostSpans()
    with spans.span("setup.import"):
        import harness
    workload, seed = BY_NAME[spec["workload"]], spec["seed"]
    if spec["quick"]:
        workload = workload.quick()
    if spec["kind"] == "reference":
        block = harness.run_reference(workload, seed, spans, _T0)
    elif spec["kind"] == "setup":
        block = harness.run_setup(workload, seed, spans, _T0)
    elif spec["kind"] == "ladder":
        block = harness.run_ladder(workload, seed, spans)
    else:
        block = harness.run_traced(workload, seed, spans)
    block["spans"] = spans.spans
    block["child_s"] = time.perf_counter() - _T0
    print(json.dumps(block))
    return 0


def spawn(kind: str, workload: str, seed: int, quick: bool) -> dict:
    """Run one measurement in a fresh interpreter and wait for it."""
    spec = {"kind": kind, "workload": workload, "seed": seed, "quick": quick}
    done = subprocess.run(
        [sys.executable, str(_HERE / "run.py"), "--child", json.dumps(spec)],
        env={**os.environ, "PYTHONHASHSEED": "0"},
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"perf: {kind} run of {workload} exited with {done.returncode}")
    block = json.loads(done.stdout.splitlines()[-1])
    block["label"] = f"{workload}.{kind}"
    return block


def violations_of(block: dict) -> list[str]:
    found = list(block.get("violations", ()))
    for rung in block.get("rungs", ()):
        found += rung["violations"]
    return found


# ----------------------------------------------------------------------
# Assembling a workload's result
# ----------------------------------------------------------------------
def reference(name: str, seed: int, quick: bool) -> dict:
    """A reference run, then children that only set up.  Set-up cannot
    be interleaved with the calibration kernel, and a short calibration
    after it is noisier than set-up itself, so every set-up of the group
    counts at the speed the run's meter found over the next seconds."""
    block = spawn("reference", name, seed, quick)
    extra = [spawn("setup", name, seed, quick) for _ in range(0 if quick else SETUPS_PER_RUN)]
    block["setup_raw_s"] = [child["setup_raw_s"] for child in (block, *extra)]
    speed = block["host_s"] / block["host_raw_s"]
    block["setup_s"] = [raw * speed for raw in block["setup_raw_s"]]
    return block


def end_to_end(references: list[dict], ladder: dict | None) -> dict:
    """The eleven end-to-end readings: exact ones from the first round,
    host ones as the median of the rounds (``setup_s``: of every set-up)."""
    values = {name: references[0].get(name) for name in end_to_end_names()}
    values["sim_max_rate_ops_s"] = ladder["sim_max_rate_ops_s"] if ladder else None
    for name in ("host_ops_per_s", "host_peak_rss_mb"):
        values[name] = statistics.median(r[name] for r in references)
    values["setup_s"] = statistics.median(s for r in references for s in r["setup_s"])
    return values


def rounds_agree(references: list[dict]) -> bool:
    first = references[0]
    return all(r[key] == first[key] for r in references[1:] for key in EXACT)


def print_metrics(title: str, metrics: dict) -> None:
    table = metric_table()
    print(f"\n{title}")
    for name, value in metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:42s} {shown:>14s} {table[name]['unit']}")


# ----------------------------------------------------------------------
# Mode 1: the whole observatory
# ----------------------------------------------------------------------
def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=_HERE, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def observe(seed: int, quick: bool, out: Path) -> int:
    names = [w.name for w in WORKLOADS]
    children: list[dict] = []

    def measure(kind: str, name: str) -> dict:
        block = reference(name, seed, quick) if kind == "reference" else spawn(
            kind, name, seed, quick
        )
        children.append(block)
        print(f"[perf] {block['label']:24s} {block['child_s']:6.1f} s", flush=True)
        return block

    # Round-robin over the workloads, so that drift of the machine during
    # the command lands on every workload alike.
    references: dict[str, list[dict]] = {name: [] for name in names}
    for _round in range(1 if quick else ROUNDS):
        for name in names:
            references[name].append(measure("reference", name))
    ladders = {name: measure("ladder", name) for name in names if BY_NAME[name].ladder}
    traced = {name: measure("traced", name) for name in names}

    problems: list[str] = []
    workloads = {}
    for name in names:
        ladder = ladders.get(name)
        if not rounds_agree(references[name]):
            problems.append(f"{name}: simulated-clock values differ between rounds")
        for block in (*references[name], ladder or {}, traced[name]):
            problems += [f"{name}: {v}" for v in violations_of(block)]
        first = references[name][0]
        rounds = {
            key: [r[key] for r in references[name]]
            for key in ("host_ops_per_s", "host_peak_rss_mb", "host_s", "host_raw_s", "child_s")
        }
        for key in ("setup_s", "setup_raw_s"):
            rounds[key] = [sample for r in references[name] for sample in r[key]]
        workloads[name] = {
            "definition": BY_NAME[name].describe(),
            "end_to_end": end_to_end(references[name], ladder),
            "ladder_saturated": ladder["ladder_saturated"] if ladder else None,
            "rounds": rounds,
            "reference": {key: first[key] for key in EXACT},
            "ladder": ladder and {k: ladder[k] for k in ("window_ms", "rungs")},
            "per_layer": traced[name]["per_layer"],
            "traced": {
                key: traced[name][key]
                for key in ("ops", "plain_host_s", "traced_host_s", "unmapped_files")
            },
        }
        print_metrics(f"{name}: end to end", workloads[name]["end_to_end"])
        for key in HOST_METRICS:
            print(f"  {key + ' min..max':42s} {min(rounds[key]):.6g}..{max(rounds[key]):.6g}"
                  f" over {len(rounds[key])}")
        print_metrics(f"{name}: per layer ({traced[name]['ops']} traced ops)",
                      workloads[name]["per_layer"])

    result = {
        "schema": SCHEMA,
        "provenance": {
            "commit": git_commit(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": seed,
            "rounds": 1 if quick else ROUNDS,
            "quick": quick,
            "children": [{"label": c["label"], "seconds": c["child_s"]} for c in children],
            "total_s": time.perf_counter() - _T0,
        },
        "correct": not problems,
        "problems": problems,
        # Which end-to-end metrics each per-layer metric should move.
        "moves": {name: moves_of(name) for name in workloads[names[0]]["per_layer"]},
        "workloads": workloads,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True))
    trace_path = out.with_suffix(".trace.json")
    write_chrome_trace(trace_path, [(c["label"], c["spans"]) for c in children])
    print(f"\n[perf] wrote {out} and {trace_path} "
          f"({result['provenance']['total_s']:.0f} s in all)")
    for problem in problems:
        print(f"[perf] FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Mode 2: compare two results
# ----------------------------------------------------------------------
def spread_of(rounds: list[float]) -> float:
    """Inter-quartile distance of the rounds' values as a share of their
    median (max - min for three rounds)."""
    if len(rounds) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(rounds, n=4)
    return (high - low) / statistics.median(rounds)


def verdict(name: str, a: float, b: float, spread: float) -> tuple[float, str]:
    """(B/A, verdict).  A host metric differs once the difference
    exceeds the bound and the spread of either side's rounds.  An exact
    metric is worse beyond its bound and better on any gain."""
    entry = metric_table()[name]
    ratio = b / a if a else (1.0 if b == a else float("inf"))
    worsening = (ratio - 1.0) * (1.0 if entry["better"] == "lower" else -1.0)
    threshold = max(entry["bound"], spread)
    if worsening > threshold:
        return ratio, "worse"
    if -worsening > (threshold if name in HOST_METRICS else 0.0):
        return ratio, "better"
    return ratio, "unresolved" if spread > entry["bound"] else "same"


def compare(path_a: Path, path_b: Path) -> int:
    a, b = (json.loads(p.read_text())["workloads"] for p in (path_a, path_b))
    table = metric_table()
    print(f"A = {path_a}\nB = {path_b}\nratio = B/A (base A); bound = share of A")
    print(f"{'workload':13s} {'metric':20s} {'A':>12s} {'B':>12s} {'B/A':>7s} "
          f"{'bound':>6s} {'spread':>6s}  verdict")
    worse = 0
    sim_identical = True
    for name in a:
        if name not in b:
            continue
        sim_identical &= all(a[name][k] == b[name][k] for k in ("reference", "ladder"))
        for metric in end_to_end_names():
            va, vb = a[name]["end_to_end"][metric], b[name]["end_to_end"][metric]
            bound = table[metric]["bound"]
            if va is None and vb is None:
                continue
            if va is None or vb is None:
                print(f"{name:13s} {metric:20s} {va!s:>12s} {vb!s:>12s} {'-':>7s} "
                      f"{bound:6.2f} {'-':>6s}  worse")
                worse += 1
                continue
            spread = 0.0
            if metric in HOST_METRICS:
                spread = max(
                    spread_of(side[name]["rounds"][metric]) for side in (a, b)
                )
            ratio, word = verdict(metric, va, vb, spread)
            worse += word == "worse"
            print(f"{name:13s} {metric:20s} {va:12.6g} {vb:12.6g} {ratio:7.3f} "
                  f"{bound:6.2f} {spread:6.3f}  {word}")
    print(f"sim-identical: {'yes' if sim_identical else 'no'}")
    return 1 if worse else 0


# ----------------------------------------------------------------------
# Mode 3: one workload, one JSON line (the BENCHMARK.json contract)
# ----------------------------------------------------------------------
def contract_run(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> int:
    """``--trace 1``: the traced run, every per-layer metric the contract
    lists.  ``--trace 0``: whole reference runs, each a fresh child, as
    many as end within ``seconds`` (one at least); the first gives the
    simulated-clock metrics, which the others must repeat bit for bit,
    and all of them the host medians."""
    if trace:
        blocks = [spawn("traced", name, seed, quick)]
        readings = blocks[0]["per_layer"]
        section = "per_layer"
    else:
        blocks, longest = [], 0.0
        while not blocks or (time.perf_counter() - _T0) + longest <= seconds:
            started = time.perf_counter()
            blocks.append(reference(name, seed, quick))
            longest = max(longest, time.perf_counter() - started)
        readings = end_to_end(blocks, None)
        section = "end_to_end"
    metrics = {entry["name"]: readings[entry["name"]] for entry in contract()[section]}
    problems = [v for block in blocks for v in violations_of(block)]
    if not trace and not rounds_agree(blocks):
        problems.append("simulated-clock values differ between repetitions")
    problems += [f"{metric} has no reading" for metric, value in metrics.items() if value is None]
    for problem in problems:
        print(f"[perf] FAILED: {problem}", file=sys.stderr)
    print_metrics(f"{name} (seed {seed}, {len(blocks)} run(s))", metrics)
    table = metric_table()
    print(json.dumps({
        "correct": not problems,
        "attempted": blocks[0]["ops"],
        "failed": blocks[0]["failed"],
        "metrics": {
            metric: {"value": value, "unit": table[metric]["unit"]}
            for metric, value in metrics.items()
        },
    }))
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="result JSON")
    parser.add_argument("--quick", action="store_true",
                        help="1/20 of the ops, one round, two rungs: a smoke run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        return child_main(json.loads(args.child))
    if args.compare is not None:
        return compare(*args.compare)
    if not REPRO_DIR.is_dir():
        raise SystemExit(f"perf: the program under test is missing ({REPRO_DIR})")
    if args.workload is not None:
        return contract_run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    return observe(args.seed, args.quick, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
