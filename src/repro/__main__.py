"""Entry point: ``python -m repro explore [...]``.

``explore`` runs the adversarial schedule explorer / fault fuzzer, and
``explore --replay FILE`` re-executes a repro file or corpus entry with
causal span tracing (critical-path attribution, ``--chrome`` export);
see :mod:`repro.explore.cli`.  The package's crash / exclusion /
recovery / rejoin lifecycle is the corpus entry
``tests/explore/corpus/crash-exclusion-recovery-rejoin.json``, replayed
with every invariant checked.  Anything else prints the usage and exits 2.
"""

from __future__ import annotations

import sys

from repro.explore.cli import build_parser
from repro.explore.cli import main as explore_main


def main(argv: list[str]) -> int:
    if argv[:1] != ["explore"]:
        build_parser().print_usage(sys.stderr)
        return 2
    return explore_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
