"""Section 4.4 — view changes without blocking.

Traditional stacks implementing *sending view delivery* must stop senders
while the membership change protocol runs (Ensemble's Sync, Isis's
flush).  The generic-broadcast-based membership of the new architecture
implements *same view delivery* and never blocks a sender.

We drive identical join/leave churn through the Isis stack and the new
architecture and measure: total sender-blocked time, number of blocking
episodes, send-delay suffered by messages issued during changes, and
whether traffic kept flowing.
"""

from common import Group, Result

from repro.core.new_stack import add_joiner
from repro.net.topology import LinkModel
from repro.traditional.isis import IsisConfig, add_isis_joiner

CHURN_EVENTS = 4


def run_churn(kind, new_joiner, **build):
    g = Group(kind, 3, seed=40, link=LinkModel(1.0, 1.0), **build)
    world = g.world
    sent = 0
    for round_no in range(CHURN_EVENTS):
        joiner = new_joiner(world, g.stacks)
        (joiner.gm if kind == "isis" else joiner.membership).request_join("p00")
        # Keep broadcasting while the view change runs.
        for i in range(5):
            g.send("p01", ("m", round_no, i))
            sent += 1
            world.run_for(5.0)
        assert world.run_until(
            lambda: joiner.view() is not None, timeout=120_000
        )
    g.drain(sent, ["p01"])
    m = world.metrics
    return {
        "blocked_ms": m.intervals.total("vs.blocked"),
        "episodes": m.counters.get("vs.blocks"),
        "queued_sends": m.counters.get("vs.sends_blocked"),
        "send_delay": m.latency.stats("vs.send_delay").mean if m.latency.samples("vs.send_delay") else 0.0,
        "views": g.stacks["p00"].view().id,
    }


def scenario_sec44_view_change_blocking() -> Result:
    r = Result()
    isis = run_churn("isis", add_isis_joiner, config=IsisConfig(exclusion_timeout=60_000.0))
    new = run_churn("new", add_joiner)
    r.table(
        f"Sec. 4.4  Sender blocking during {CHURN_EVENTS} join-triggered view changes",
        ["stack", "view changes", "blocking episodes", "sends queued",
         "total blocked ms", "mean send delay ms"],
        [
            ["Isis (sending view delivery)", isis["views"], isis["episodes"],
             isis["queued_sends"], isis["blocked_ms"], isis["send_delay"]],
            ["new architecture (same view delivery)", new["views"], new["episodes"],
             new["queued_sends"], new["blocked_ms"], new["send_delay"]],
        ],
        note=(
            "Shape: the traditional stack blocks every sender on every view "
            "change (Ensemble Sync / Isis flush, Sec. 4.4); the generic-"
            "broadcast-based membership installs the same number of views with "
            "ZERO blocked time — same view delivery comes 'naturally'."
        ),
    )
    r.check("both_install_every_view", "views installed",
            {"Isis": isis["views"], "new architecture": new["views"]}, "==", CHURN_EVENTS)
    r.check("isis_blocks_senders", "Isis",
            {"blocked ms": isis["blocked_ms"], "sends queued": isis["queued_sends"]}, ">", 0)
    r.check("new_arch_never_blocks", "new architecture",
            {"blocked ms": new["blocked_ms"], "sends queued": new["queued_sends"]}, "==", 0)
    return r
