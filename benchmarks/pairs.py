"""Alternating parent / change pairs of the contract command, with the verdict.

    python benchmarks/pairs.py PARENT --workload W --seeds 1:11 [--claim METRIC]
                                      [--trace] [--json FILE]

Runs one pair per seed of the contract command: the ``command`` that
``BENCHMARK.json`` names, with ``--workload W --seed N --seconds S
--trace 0`` where ``S`` is its ``run_seconds``.  One side runs in a
temporary export of revision ``PARENT`` (``git archive``, so the
repository gets no worktree entry), the other in this checkout.  Even
pairs run the parent first, odd pairs the change.  It then prints, for
every contract metric, each side's median and quartiles and its verdict
against the bound ``BENCHMARK.json`` fixes for it (:func:`judge`:
``worse``, ``unresolved``, ``same`` or ``better``), and whether every
exact metric — anything measured on the simulated clock or counted — is
identical pair for pair.

``--claim METRIC`` names the end-to-end metric a gain is claimed on,
judged in that metric's own direction.  A host metric (read off the host
clock) is claimed by the small-sandbox rule: the change wins at least
nine tenths of the pairs (ties count for neither) and the medians differ
by more than the distance between the parent's quartiles.  An exact
metric is claimed where :func:`judge` reads ``better``.  No gain is
claimed by default.

Exit status: 1 on any ``worse``, on a run that is not correct or has
failed ops, and on exact metrics that differ (unless the claim names an
exact metric); else 2 where the claim does not hold; else 0.

With ``--trace`` each pair also runs the traced contract form
(``--trace 1``) on both sides, and the tool prints both sides' medians
of every ``*.host_self_us_per_op`` and ``*.calls_per_op``: where a
host-time saving sits, layer by layer.

Each side runs the benchmark code of its own revision.  Run nothing else
on the machine meanwhile: host time is measured.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent

#: Metrics read off the host clock, as ``benchmarks/perf/run.py`` names
#: them; every other contract metric must repeat exactly.
HOST_METRICS = ("setup_s", "host_ops_per_s", "host_peak_rss_mb")
#: Exit statuses of :func:`main`: a regression (a ``worse`` metric, an
#: unhealthy run, exact metrics that differ), then a claim that does not
#: hold.
REGRESSED, NOT_CLAIMED = 1, 2
#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9
#: Suffixes of the traced per-layer metrics ``--trace`` tabulates.
TRACED_SUFFIXES = (".host_self_us_per_op", ".calls_per_op")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


@dataclass(frozen=True)
class Verdict:
    pairs: int
    wins: int
    ties: int
    #: Change median minus parent median, signed so that a gain is positive.
    gain: float
    #: The parent's inter-quartile distance.
    parent_spread: float
    ratio: float

    @property
    def claimed(self) -> bool:
        return self.wins >= WIN_SHARE * self.pairs and self.gain > self.parent_spread


def verdict(parent: list[float], change: list[float], better: str) -> Verdict:
    """Judge paired readings (``parent[i]`` and ``change[i]`` ran
    together) of one metric whose ``better`` is ``"higher"`` or
    ``"lower"``."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same non-zero number of readings per side")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    p_low, p_median, p_high = quartiles(parent)
    c_median = quartiles(change)[1]
    return Verdict(
        pairs=len(parent),
        wins=wins,
        ties=ties,
        gain=sign * (c_median - p_median),
        parent_spread=p_high - p_low,
        ratio=c_median / p_median if p_median else float("inf"),
    )


def judge(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on one end-to-end metric of paired readings against
    its ``bound``, a share of the parent's median; the parent's *spread*
    is its inter-quartile distance as a share of its median.

    ``worse``: the change's median is worse than the parent's by more
    than both the bound and the spread.  ``unresolved``: otherwise, where
    the spread exceeds the bound — unless every change reading is better
    than every parent reading, which is ``better``: a spread that wide
    says nothing of a same median.  Otherwise ``better`` where the median gains more than the
    spread (any gain, for a metric that repeats exactly), else ``same``."""
    p_low, p_median, p_high = quartiles(parent)
    c_median = quartiles(change)[1]
    sign = 1.0 if better == "lower" else -1.0
    scale = abs(p_median) or 1.0
    spread = (p_high - p_low) / scale
    worsening = sign * (c_median - p_median) / scale
    if worsening > max(bound, spread):
        return "worse"
    if spread > bound:
        every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
        return "better" if every_run_better else "unresolved"
    return "better" if -worsening > spread else "same"


def contract() -> dict:
    return json.loads((_ROOT / "BENCHMARK.json").read_text())


def contract_metrics() -> dict[str, str]:
    """End-to-end metric -> its ``better`` direction, from BENCHMARK.json."""
    return {entry["name"]: entry["better"] for entry in contract()["end_to_end"]}


def contract_bounds() -> dict[str, float]:
    """End-to-end metric -> its ``bound``, from BENCHMARK.json."""
    return {entry["name"]: entry["bound"] for entry in contract()["end_to_end"]}


def contract_command(workload: str, seed: int, trace: bool = False) -> list[str]:
    """The contract command for one run, from BENCHMARK.json: the
    end-to-end form, or with ``trace`` the traced per-layer form."""
    spec = contract()
    return [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "1" if trace else "0"]


def export(revision: str, into: Path) -> Path:
    """Write the tree of ``revision`` into ``into``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=_ROOT, check=True, capture_output=True,
    ).stdout
    # The ``data`` filter exists from Python 3.10.12 / 3.11.4 on; the
    # archive is our own tree, so older releases extract it unfiltered.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    return into


def run_side(root: Path, workload: str, seed: int, trace: bool = False) -> dict:
    """One contract run in ``root``; its last stdout line, parsed."""
    done = subprocess.run(
        contract_command(workload, seed, trace), cwd=root, capture_output=True, text=True
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{root} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(lines[-1])


def run_pairs(
    parent_root: Path, workload: str, seeds: list[int], trace: bool = False
) -> list[dict]:
    roots = {"parent": parent_root, "change": _ROOT}
    runs = []
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_side(roots[side], workload, seed)
        if trace:
            pair["traced"] = {side: run_side(roots[side], workload, seed, True) for side in order}
        values = {side: pair[side]["metrics"] for side in ("parent", "change")}
        print(f"[pairs] seed {seed} ({order[0]} first): " + ", ".join(
            f"{name} {values['parent'][name]['value']:.6g} -> {values['change'][name]['value']:.6g}"
            for name in HOST_METRICS
        ), file=sys.stderr)
        runs.append(pair)
    return runs


def report(runs: list[dict], claim: str | None = None) -> int:
    """Print the table with every metric's verdict, the verdict on the
    ``claim`` (if any), the exact-metric check and the health check.
    Returns the exit status (see the module docstring)."""
    directions = contract_metrics()
    bounds = contract_bounds()
    print(f"{'metric':20s} {'parent q1 / median / q3':>32s} {'change q1 / median / q3':>32s}"
          f" {'ratio':>7s} {'bound':>6s}  verdict")
    readings, words = {}, {}
    for name in directions:
        parent, change = readings[name] = tuple(
            [run[side]["metrics"][name]["value"] for run in runs]
            for side in ("parent", "change"))
        (pl, pm, ph), (cl, cm, ch) = quartiles(parent), quartiles(change)
        words[name] = judge(parent, change, directions[name], bounds[name])
        print(f"{name:20s} {pl:10.6g} {pm:10.6g} {ph:10.6g} {cl:10.6g} {cm:10.6g} {ch:10.6g}"
              f" {cm / pm if pm else float('nan'):7.3f} {bounds[name]:6.2f}  {words[name]}")
    exact = [name for name in directions if name not in HOST_METRICS]
    holds = True
    if claim in HOST_METRICS:
        result = verdict(*readings[claim], directions[claim])
        holds = result.claimed
        print(f"{claim}: change wins {result.wins} of {result.pairs} pairs, {result.ties} tied; "
              f"median ratio {result.ratio:.3f} (base: parent); gain {result.gain:.6g} vs "
              f"parent inter-quartile distance {result.parent_spread:.6g}: "
              f"{'CLAIMED' if holds else 'not claimed'}")
    elif claim:
        holds = words[claim] == "better"
        print(f"{claim}: {words[claim]}: {'CLAIMED' if holds else 'not claimed'}")
    else:
        print("claim: none")
    identical = all(
        run["parent"]["metrics"][name] == run["change"]["metrics"][name]
        for run in runs for name in exact
    )
    healthy = all(
        run[side]["correct"] and run[side]["failed"] == 0
        for run in runs for side in ("parent", "change")
    )
    print(f"exact metrics identical: {'yes' if identical else 'no'} ({', '.join(exact)})")
    print(f"every run correct with 0 failed: {'yes' if healthy else 'no'}")
    if "worse" in words.values() or not healthy or not (identical or claim in exact):
        return REGRESSED
    return 0 if holds else NOT_CLAIMED


def traced_medians(runs: list[dict]) -> list[tuple[str, float, float]]:
    """``(metric, parent median, change median)`` of every traced
    ``*.host_self_us_per_op`` and ``*.calls_per_op``, in the order the
    traced runs list them."""
    first = runs[0]["traced"]["parent"]["metrics"]
    names = [name for name in first if name.endswith(TRACED_SUFFIXES)]
    return [
        (name, *(
            statistics.median(run["traced"][side]["metrics"][name]["value"] for run in runs)
            for side in ("parent", "change")
        ))
        for name in names
    ]


def report_traced(runs: list[dict]) -> None:
    """Print :func:`traced_medians` with each ratio (base: parent)."""
    print(f"\ntraced medians over {len(runs)} pair(s)")
    print(f"{'metric':40s} {'parent':>10s} {'change':>10s} {'ratio':>7s}")
    for name, parent, change in traced_medians(runs):
        ratio = f"{change / parent:7.3f}" if parent else f"{'-':>7s}"
        print(f"{name:40s} {parent:10.6g} {change:10.6g} {ratio}")


def seed_range(text: str) -> list[int]:
    """``A:B`` -> seeds A..B-1; ``A,B,C`` -> those."""
    if ":" in text:
        first, stop = (int(part) for part in text.split(":"))
        return list(range(first, stop))
    return [int(part) for part in text.split(",")]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="git revision of the parent")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1:11"))
    parser.add_argument("--claim", choices=sorted(contract_metrics()),
                        help="the end-to-end metric a gain is claimed on (default: none)")
    parser.add_argument("--trace", action="store_true",
                        help="also run the traced form and tabulate per-layer host time")
    parser.add_argument("--json", type=Path, help="write every run here")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        parent_root = export(args.parent, Path(tmp))
        runs = run_pairs(parent_root, args.workload, args.seeds, args.trace)
    if args.json:
        args.json.write_text(json.dumps(runs, indent=2) + "\n")
    status = report(runs, args.claim)
    if args.trace:
        report_traced(runs)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
