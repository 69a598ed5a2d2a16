"""Sweep the ship profile: every seed's adversarial run with the shipping
stack knobs forced (``test_frontier.ship_result``).

    PYTHONPATH=src python tests/explore/ship_sweep.py 0:1300 > ship.json
    python tests/explore/check_frontier.py --profile ship ship.json

Prints one JSON document in the shape of ``python -m repro explore
--json`` (``seeds``, ``violations``, ``unconverged``, ``ok``, ``runs``);
no run is shrunk and no repro file is written.  Exits 0 whatever the
runs found: ``check_frontier.py`` is the judge.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
for entry in (str(REPO), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.explore.cli import parse_seed_range  # noqa: E402

from tests.explore.test_frontier import ship_result  # noqa: E402


def main(argv: list[str]) -> int:
    seeds = parse_seed_range(argv[0])
    results = {seed: ship_result(seed) for seed in seeds}
    violations = [
        {"seed": seed, "invariant": result.violation["invariant"], "repro": None}
        for seed, result in results.items()
        if result.violation is not None
    ]
    doc = {
        "seeds": [seeds.start, seeds.stop],
        "violations": violations,
        "unconverged": [
            seed
            for seed, result in results.items()
            if result.violation is None and not result.converged
        ],
        "ok": not violations,
        "runs": {str(seed): result.fingerprint for seed, result in results.items()},
    }
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
