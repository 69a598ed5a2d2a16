"""Cross-architecture comparison (the Section 2.3 discussion, quantified).

The same workload — a burst of totally ordered broadcasts from every
member, then a crash followed by more traffic — over all six stacks.
Reported: failure-free latency, network messages per delivery, and the
time from the crash to the next successful delivery (the responsiveness
dimension the new architecture is designed around).
"""

from common import once, report

from repro.core.new_stack import StackConfig, build_new_group
from repro.monitoring.component import MonitoringPolicy
from repro.net.topology import LinkModel
from repro.sim.world import World
from repro.traditional.ensemble import EnsembleConfig, build_ensemble_group
from repro.traditional.isis import IsisConfig, build_isis_group
from repro.traditional.phoenix import PhoenixConfig, build_phoenix_group
from repro.traditional.rmp import RingConfig, build_rmp_group
from repro.traditional.totem import build_totem_group

FD_TIMEOUT = 300.0
BURST = 12


def scenario(build, send, log, crash_pid="p00"):
    world = World(seed=50, default_link=LinkModel(1.0, 1.0))
    handles = build(world)
    world.start()
    pids = sorted(handles)
    for i in range(BURST // 3):
        for pid in pids:
            send(handles, pid, ("m", pid, i))
    assert world.run_until(
        lambda: all(len(log(handles, p)) == BURST for p in pids), timeout=300_000
    )
    stats = world.metrics.latency.stats("abcast")
    msgs_per_delivery = world.metrics.counters.get("net.sent") / (BURST * 3)
    orders = [log(handles, p) for p in pids]
    agreed = all(o == orders[0] for o in orders)

    world.crash(crash_pid)
    crash_at = world.now
    survivor = [p for p in pids if p != crash_pid][0]
    send(handles, survivor, "post-crash")
    assert world.run_until(
        lambda: "post-crash" in log(handles, survivor), timeout=600_000
    )
    recovery = world.now - crash_at
    return [stats.mean, stats.p95, msgs_per_delivery, recovery, agreed]


def test_xarch_comparison(benchmark, capsys):
    def run_all():
        rows = []

        def new_build(world):
            cfg = StackConfig(
                suspicion_timeout=FD_TIMEOUT,
                monitoring=MonitoringPolicy(exclusion_timeout=10 * FD_TIMEOUT),
            )
            return build_new_group(world, 3, config=cfg)

        rows.append(
            ["new architecture"]
            + scenario(
                new_build,
                lambda h, p, m: h[p].gbcast.gbcast_payload(m, "abcast"),
                lambda h, p: [
                    m.payload for m, _x in h[p].gbcast.delivered_log if m.msg_class == "abcast"
                ],
            )
        )
        rows.append(
            ["Isis"]
            + scenario(
                lambda w: build_isis_group(w, 3, config=IsisConfig(exclusion_timeout=FD_TIMEOUT)),
                lambda h, p, m: h[p].abcast_payload(m),
                lambda h, p: h[p].delivered_payloads(),
            )
        )
        rows.append(
            ["Phoenix"]
            + scenario(
                lambda w: build_phoenix_group(
                    w, 3, config=PhoenixConfig(exclusion_timeout=FD_TIMEOUT)
                ),
                lambda h, p, m: h[p].abcast_payload(m),
                lambda h, p: h[p].delivered_payloads(),
            )
        )
        rows.append(
            ["RMP"]
            + scenario(
                lambda w: build_rmp_group(w, 3, config=RingConfig(exclusion_timeout=FD_TIMEOUT)),
                lambda h, p, m: h[p].abcast_payload(m),
                lambda h, p: h[p].delivered_payloads(),
            )
        )
        rows.append(
            ["Totem"]
            + scenario(
                lambda w: build_totem_group(w, 3, config=RingConfig(exclusion_timeout=FD_TIMEOUT)),
                lambda h, p, m: h[p].abcast_payload(m),
                lambda h, p: h[p].delivered_payloads(),
            )
        )
        rows.append(
            ["Ensemble"]
            + scenario(
                lambda w: build_ensemble_group(
                    w, 3, config=EnsembleConfig(exclusion_timeout=FD_TIMEOUT)
                ),
                lambda h, p, m: h[p].send(m),
                lambda h, p: h[p].delivered_payloads(),
            )
        )
        return rows

    rows = once(benchmark, run_all)
    report(
        capsys,
        f"Cross-architecture comparison (same workload, n=3, FD timeout {FD_TIMEOUT:.0f} ms)",
        ["architecture", "latency mean ms", "p95 ms", "net msgs/delivery",
         "crash -> next delivery ms", "total order"],
        rows,
        note=(
            "Shape: every architecture agrees on the total order.  The "
            "traditional stacks pay the full exclusion machinery after the "
            "crash (flush / 2PC reformation / sync blocking) on top of the FD "
            "timeout; the new architecture pays the suspicion timeout and one "
            "consensus round — and could safely run a much smaller timeout "
            "(see bench_sec43).  On the ordered burst itself one ENDSTAGE "
            "orders everything that is waiting, so the consensus-based stack "
            "needs under half the datagrams per delivery of any traditional "
            "one (Sec. 4.2: atomic broadcast only when a conflict needs it)."
        ),
    )
    assert all(r[5] for r in rows)
    # The 2x that Sec. 4.2's bank bench no longer shows between two
    # relations of the same stack holds against the stacks that can only
    # order: per-message ordering work vs. one instance per burst.
    assert 2 * rows[0][3] <= min(r[3] for r in rows[1:])
    new_recovery = rows[0][4]
    for row in rows[1:]:
        assert row[4] >= FD_TIMEOUT, f"{row[0]} recovered before its FD timeout?"
    assert new_recovery <= min(r[4] for r in rows[1:]) * 1.5
