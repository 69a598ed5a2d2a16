"""Judge an explore sweep against the pinned frontier.

    PYTHONPATH=src python -m repro explore --seeds 0:1300 --json > explore.json
    python tests/explore/check_frontier.py explore.json

    PYTHONPATH=src python tests/explore/ship_sweep.py 0:1300 > ship.json
    python tests/explore/check_frontier.py --profile ship ship.json

Exits 0 when the sweep's violation seeds (each with its invariant) and
its unconverged seeds are exactly the entries of ``frontier.json`` under
the sampler profile (``--profile``, ``default`` unless given) whose seed
lies in the swept range; else prints every difference and exits 1.  So
a new failure fails, and so does a pinned seed that no longer fails (or
fails another way) while its entry stays.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Every seed known to fail, per sampler profile: ``{"seed", "family"}``
#: entries, the family being the violated invariant or ``unconverged``.
FRONTIER = json.loads(Path(__file__).with_name("frontier.json").read_text())


def mismatches(doc: dict, entries: list[dict]) -> list[str]:
    """What an explore ``--json`` summary ``doc`` fails on that ``entries``
    does not pin in its range, and what it pins that the sweep passed."""
    lo, hi = doc["seeds"]
    seen = {(v["seed"], v["invariant"]) for v in doc["violations"]}
    seen |= {(seed, "unconverged") for seed in doc["unconverged"]}
    pinned = {(e["seed"], e["family"]) for e in entries if lo <= e["seed"] < hi}
    return [f"seed {seed}: {family}, not pinned" for seed, family in sorted(seen - pinned)] + [
        f"seed {seed}: pinned as {family}, not seen" for seed, family in sorted(pinned - seen)
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=sorted(FRONTIER), default="default")
    parser.add_argument("sweep", type=Path, help="an explore --json summary")
    args = parser.parse_args(argv)
    doc = json.loads(args.sweep.read_text())
    problems = mismatches(doc, FRONTIER[args.profile])
    for problem in problems:
        print(problem)
    lo, hi = doc["seeds"]
    verdict = "differs from" if problems else "matches"
    print(f"seeds {lo}:{hi}: {verdict} the pinned {args.profile} frontier")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
