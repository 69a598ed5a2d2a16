"""Where do the messages go?  Per-component traffic breakdown.

Complements bench_sec41 (conceptual complexity) and bench_xarch (total
cost) by attributing the new architecture's wire traffic to its Fig. 9
components, for a fixed workload — showing what the consensus-based
design actually spends its messages on.
"""

from common import Group, Result

BURST = 15

PORT_LABELS = [
    ("rb", "reliable broadcast (payloads + relays + decides)"),
    ("gb.ack", "generic broadcast fast-path acks"),
    ("cons", "consensus rounds (estimate/propose/ack)"),
    ("gm.state", "membership state transfer"),
    ("mon.vote", "monitoring suspicion votes"),
    ("rb.stable", "stability gossip (GC)"),
]


def scenario_msg_breakdown() -> Result:
    r = Result()
    g = Group("new", 3, seed=90)
    pids = sorted(g.stacks)
    for i in range(BURST):
        g.send(pids[i % 3], ("m", i))
    g.drain(BURST)
    counters = g.world.metrics.counters.snapshot()
    rc_total = counters.get("rc.sent", 0)
    heartbeats = counters.get("net.sent.port.fd.hb", 0)
    rows = []
    accounted = 0
    for port, label in PORT_LABELS:
        count = counters.get(f"rc.sent.port.{port}", 0)
        accounted += count
        rows.append([label, count, f"{count / max(1, rc_total):.0%}"])
    rows.append(["other reliable-channel traffic", rc_total - accounted,
                 f"{(rc_total - accounted) / max(1, rc_total):.0%}"])
    rows.append(["failure-detector heartbeats (unreliable)", heartbeats, "-"])
    r.table(
        f"Message breakdown: {BURST} ordered broadcasts on the new architecture (n=3)",
        ["component", "channel sends", "share of channel traffic"],
        rows,
        note=(
            "Shape: the consensus-based stack's cost is dominated by the "
            "broadcast fabric (rbcast relays + decision dissemination) and "
            "the consensus rounds for the conflicting traffic; GC gossip and "
            "monitoring are background noise.  Heartbeats ride the raw "
            "transport, not the channel."
        ),
    )
    sends = {label: count for label, count, _share in rows}
    r.check("ordering_and_broadcast_carry_the_traffic", "channel sends", {
        "consensus rounds": sends["consensus rounds (estimate/propose/ack)"],
        "reliable broadcast": sends["reliable broadcast (payloads + relays + decides)"],
        "all components": rc_total,
    }, ">", 0)
    return r
