"""Command-line interface: ``python -m repro explore``.

Sweep mode explores a seed range under both sampler profiles
(``default`` and ``ship``, see ``repro.explore.explorer.PROFILES``),
shrinking failures and writing the repro files of failing and
unconverged runs::

    python -m repro explore --seeds 0:50 --budget-events 200000 --out repros/

``--json`` prints ``{"seeds": [lo, hi], "violations": [{"profile", "seed",
"invariant", "repro"}], "unconverged": [{"profile", "seed", "repro"}],
"ok", "runs": {profile: {seed: fingerprint}}}``, the document
``tests/explore/check_frontier.py`` judges against the pinned failures.

Replay mode re-executes a saved repro file with causal span tracing,
verifies the recorded outcome reproduces byte-identically, checks the
span tree's integrity and prints the per-layer critical-path
attribution of the run's deliveries and its slowest delivery chains;
``--chrome`` exports the annotated trace for Perfetto /
``chrome://tracing``.  A corpus entry replays too, and is expected to
run clean and converge::

    python -m repro explore --replay repros/repro-seed7-default-conflict-order.json
    python -m repro explore --replay tests/explore/corpus/one-closer-liveness-ladder.json --chrome t.json

Exit status: 0 when the sweep found no violations in either profile
(unconverged runs do not count), or the replay reproduced exactly, with
an intact span tree; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.explore.explorer import PROFILES, replay_repro, sweep
from repro.sim import critpath


def parse_seed_range(text: str) -> range:
    """``"0:50"`` → range(0, 50); a bare ``"7"`` → range(7, 8)."""
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = int(text)
        hi = lo + 1
    if hi <= lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return range(lo, hi)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro explore",
        description="Adversarial schedule exploration with online invariant "
        "checking and automatic failing-schedule shrinking.",
    )
    parser.add_argument(
        "--seeds",
        type=parse_seed_range,
        default=range(0, 20),
        metavar="LO:HI",
        help="seed range to sweep, half-open (default 0:20)",
    )
    parser.add_argument(
        "--budget-events",
        type=int,
        default=200_000,
        metavar="N",
        help="max simulator events per run (default 200000)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="directory for repro files of failing schedules",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="emit failing schedules unshrunk (faster sweeps)",
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="re-execute a saved repro file or corpus entry, traced, "
        "instead of sweeping",
    )
    parser.add_argument(
        "--chrome",
        default=None,
        metavar="PATH",
        help="with --replay: export the annotated trace as Chrome-trace JSON",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=3,
        metavar="N",
        help="with --replay: render the N slowest delivery critical paths "
        "(default 3)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable summary on stdout",
    )
    return parser


def run_replay(args: argparse.Namespace) -> int:
    config, expected, result, world, matches = replay_repro(args.replay)
    spans = world.trace.spans
    integrity = spans.check_integrity()
    if args.json:
        print(
            json.dumps(
                {
                    "replay": args.replay,
                    "reproduced": matches,
                    "expected": expected,
                    "actual": result.to_json_obj(),
                    "span_integrity_errors": len(integrity),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"replay {args.replay} (seed {config.seed}, {config.processes} "
              f"processes, {config.duration} ms):")
        print(f"  expected invariant:   {expected['invariant']}")
        print(f"  actual invariant:     {result.verdict}")
        print(f"  expected fingerprint: {expected['fingerprint']}")
        print(f"  actual fingerprint:   {result.fingerprint}")
        print(f"  converged:            {result.converged}")
        print("  REPRODUCED" if matches else "  DID NOT REPRODUCE")
        print(f"spans: {len(spans)} recorded, {spans.dropped} dropped, "
              f"{len(integrity)} integrity errors")
        for problem in integrity[:10]:
            print(f"  INTEGRITY: {problem}")
        for kind, layer in (("gdeliver", "gbcast"), ("adeliver", "abcast")):
            block = critpath.summarize_deliveries(spans, kind, layer)
            print(f"  {layer} deliveries (critical path):")
            for key in sorted(block):
                print(f"    {key}: {block[key]}")
        slow = critpath.slowest_deliveries(spans, args.top, "gdeliver", "gbcast")
        if not slow:
            slow = critpath.slowest_deliveries(spans, args.top, "adeliver", "abcast")
        if slow:
            print(f"slowest {len(slow)} delivery chain(s):")
            for record in slow:
                print(critpath.render_path(record))
    if args.chrome:
        world.trace.export_chrome(args.chrome)
        if not args.json:
            print(f"chrome trace written to {args.chrome}")
    return 0 if matches and not integrity else 1


def run_sweep(args: argparse.Namespace) -> int:
    def tagged(r) -> dict:
        return {"profile": r.profile, "seed": r.seed, "repro": r.repro_path and str(r.repro_path)}

    def progress(report) -> None:
        if args.json:
            return
        result = report.result
        where = f" -> {report.repro_path}" if report.repro_path else ""
        if report.failed:
            print(f"seed {report.seed} ({report.profile}): VIOLATION [{result.verdict}]{where}")
            for pid, fd in result.stats.get("fd", {}).items():
                print(
                    f"  {pid}: suspects {fd['suspects']}, watcher {fd['watcher']}, "
                    f"first-hand {fd['first_hand']}"
                )
        else:
            verdict = "ok (converged, " if result.converged else "UNCONVERGED ("
            print(
                f"seed {report.seed} ({report.profile}): {verdict}"
                f"{result.deliveries} deliveries, {result.events} events){where}"
            )
            for pid, waits in result.stats.get("blocked", {}).items():
                for mid, namer in waits.items():
                    print(f"  {pid}: abcast blocked on {mid}, named_by={namer}")
            if result.stats.get("posthoc"):
                print(f"  posthoc: {result.stats['posthoc']}")

    summary = sweep(
        args.seeds,
        budget_events=args.budget_events,
        out_dir=args.out,
        shrink=not args.no_shrink,
        progress=progress,
    )
    if args.json:
        runs = {profile: {} for profile in PROFILES}
        for r in summary.reports:
            runs[r.profile][str(r.seed)] = r.result.fingerprint
        print(
            json.dumps(
                {
                    "seeds": [args.seeds.start, args.seeds.stop],
                    "violations": [
                        {**tagged(r), "invariant": r.result.verdict} for r in summary.failures
                    ],
                    "unconverged": [tagged(r) for r in summary.unconverged],
                    "ok": summary.ok,
                    # Every swept seed's fingerprint, per profile: two
                    # trees that simulate alike print the same bytes,
                    # one that moves any run does not.
                    "runs": runs,
                },
                sort_keys=True,
            )
        )
    else:
        print(
            f"swept {len(summary.reports)} runs ({len(args.seeds)} seeds × "
            f"{len(PROFILES)} profiles): {len(summary.failures)} violations, "
            f"{len(summary.unconverged)} unconverged"
        )
    return 0 if summary.ok else 1


def main(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.replay is not None:
        return run_replay(args)
    return run_sweep(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
