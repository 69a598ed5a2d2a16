"""Entry points: ``python -m repro [selfcheck|explore]``.

``selfcheck`` (the default) runs a short deterministic scenario over the
new architecture — mixed broadcast traffic, a crash, an exclusion, then
a crash-recovery rejoin — and validates the full invariant battery with
:mod:`repro.checkers`.  Exits non-zero on any violation.  Useful as a
smoke test of an installation.

``explore`` runs the adversarial schedule explorer / fault fuzzer, and
``explore --replay FILE`` re-executes a repro file or corpus entry with
causal span tracing (critical-path attribution, ``--chrome`` export);
see :mod:`repro.explore.cli`.
"""

from __future__ import annotations

import sys

from repro.checkers import app_history, check_all
from repro.core.api import GroupCommunication
from repro.core.new_stack import StackConfig, build_new_group, enable_recovery
from repro.gbcast.conflict import RBCAST_ABCAST
from repro.monitoring.component import MonitoringPolicy
from repro.sim.world import World


def selfcheck(seed: int = 1, verbose: bool = True) -> bool:
    config = StackConfig(monitoring=MonitoringPolicy(exclusion_timeout=600.0))
    world = World(seed=seed)
    stacks = build_new_group(world, 4, config=config)
    apis = {pid: GroupCommunication(s) for pid, s in stacks.items()}
    world.start()

    for i in range(8):
        apis["p00"].abcast(("a", i))
        apis["p01"].rbcast(("r", i))
    ok = world.run_until(
        lambda: all(len(a.delivered) == 16 for a in apis.values()), timeout=60_000
    )
    world.crash("p03")
    apis["p02"].abcast("post-crash")
    survivors = ["p00", "p01", "p02"]
    ok &= world.run_until(
        lambda: all(
            "post-crash" in apis[p].delivered_payloads() for p in survivors
        ),
        timeout=60_000,
    )
    ok &= world.run_until(
        lambda: all("p03" not in apis[p].view for p in survivors), timeout=60_000
    )

    # Crash-recovery leg: p03 comes back as a fresh incarnation, rejoins
    # through membership, and delivers new traffic with everyone else.
    enable_recovery(
        world,
        stacks,
        config=config,
        on_rebuild=lambda pid, stack: apis.__setitem__(pid, GroupCommunication(stack)),
    )
    world.recover("p03")
    ok &= world.run_until(
        lambda: all("p03" in (apis[p].view or ()) for p in apis), timeout=60_000
    )
    apis["p00"].abcast("post-recover")
    ok &= world.run_until(
        lambda: all("post-recover" in a.delivered_payloads() for a in apis.values()),
        timeout=60_000,
    )

    history = {pid: app_history(stacks[pid]) for pid in survivors}
    result = check_all(history, relation=RBCAST_ABCAST)
    if verbose:
        print(f"seed {seed}: delivered={len(history['p00'])} per survivor, "
              f"view={apis['p00'].view}, "
              f"consensus={world.metrics.counters.get('consensus.decided')} decisions")
        if not ok:
            print("  TIMEOUT: scenario did not converge")
        for violation in result.violations:
            print(f"  VIOLATION: {violation}")
    return ok and bool(result)


def selfcheck_seeds(argv: list[str]) -> list[int]:
    """Seeds of ``python -m repro [selfcheck] [SEED ...]`` (default 1 2 3).

    The "selfcheck" subcommand word is optional (the CI invocation is
    ``python -m repro selfcheck``); the remaining args are seeds."""
    if argv and argv[0] == "selfcheck":
        argv = argv[1:]
    return [int(a) for a in argv] or [1, 2, 3]


def main(argv: list[str]) -> int:
    if argv and argv[0] == "explore":
        from repro.explore.cli import main as explore_main

        return explore_main(argv[1:])
    seeds = selfcheck_seeds(argv)
    print("repro self-check: new-architecture lifecycle + invariant battery")
    failures = 0
    for seed in seeds:
        if not selfcheck(seed):
            failures += 1
    if failures:
        print(f"FAILED: {failures}/{len(seeds)} seeds")
        return 1
    print(f"OK: {len(seeds)}/{len(seeds)} seeds passed "
          "(integrity, agreement, FIFO, conflict order)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
