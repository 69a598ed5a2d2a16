"""Judge an explore sweep against the pinned frontier.

    PYTHONPATH=src python -m repro explore --seeds 0:1300 --json > explore.json
    python tests/explore/check_frontier.py explore.json

Exits 0 when the sweep's violations (each with its profile and
invariant) and its unconverged runs are exactly the entries of
``frontier.json`` whose seed lies in the swept range, profile by
profile; else prints every difference and exits 1.  So a new failure
fails, and so does a pinned seed that no longer fails (or fails another
way, or under the other profile) while its entry stays.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Every seed known to fail, per sampler profile: ``{"seed", "family"}``
#: entries, the family being the violated invariant or ``unconverged``.
FRONTIER = json.loads(Path(__file__).with_name("frontier.json").read_text())


def mismatches(doc: dict, frontier: dict = FRONTIER) -> list[str]:
    """What an explore ``--json`` summary ``doc`` fails on that
    ``frontier`` does not pin in its range, and what it pins that the
    sweep passed."""
    lo, hi = doc["seeds"]
    seen = {(v["profile"], v["seed"], v["invariant"]) for v in doc["violations"]}
    seen |= {(u["profile"], u["seed"], "unconverged") for u in doc["unconverged"]}
    pinned = {
        (profile, e["seed"], e["family"])
        for profile, entries in frontier.items()
        for e in entries
        if lo <= e["seed"] < hi
    }
    return [f"{p} seed {seed}: {fam}, not pinned" for p, seed, fam in sorted(seen - pinned)] + [
        f"{p} seed {seed}: pinned as {fam}, not seen" for p, seed, fam in sorted(pinned - seen)
    ]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweep", type=Path, help="an explore --json summary")
    doc = json.loads(parser.parse_args(argv).sweep.read_text())
    problems = mismatches(doc)
    for problem in problems:
        print(problem)
    lo, hi = doc["seeds"]
    verdict = "differs from" if problems else "matches"
    print(f"seeds {lo}:{hi}: {verdict} the pinned frontier")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
