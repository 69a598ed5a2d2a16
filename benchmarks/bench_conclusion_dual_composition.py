"""Conclusion — "the two implementations share the same protocol code at
each module, and differ only in the way interactions (events) are routed".

The paper implemented its architecture in Appia and in Cactus.  We
reproduce the duality with two compositions of the *same* component
classes: direct method wiring (`repro.core.new_stack`) vs. event routing
through the composition kernel (`repro.core.composed`).  The bench runs
the identical workload over both and verifies byte-identical behaviour,
while counting what differs: the routed events.
"""

from common import Group, Result

BURST = 10


def run(kind):
    g = Group(kind, 3, seed=77)
    for i in range(BURST):
        g.send("p00", ("m", i))
    history = g.drain(BURST)
    return {
        "history": history,
        "net": g.world.metrics.counters.get("net.sent"),
        "hops": g.world.metrics.counters.get("ens.event_hops"),
        "latency": g.world.metrics.latency.stats("gbcast").mean,
    }


def scenario_conclusion_dual_composition() -> Result:
    r = Result()
    direct, composed = run("new"), run("composed")
    identical = direct["history"] == composed["history"]
    r.table(
        "Conclusion  Same protocol code, two composition frameworks",
        ["composition", "delivered histories", "datagrams", "routed events", "latency ms"],
        [
            ["direct wiring (Cactus-like)", f"{BURST} msgs x 3 procs", direct["net"],
             direct["hops"], direct["latency"]],
            ["event routing (Appia-like)", "identical" if identical else "DIVERGED",
             composed["net"], composed["hops"], composed["latency"]],
        ],
        note=(
            "Shape: both compositions produce byte-identical delivery "
            "histories and identical wire traffic; only the event-routing "
            "counter differs — the protocol code is shared, the routing is "
            "not (paper conclusion)."
        ),
    )
    r.check("same_delivery_histories", "histories identical", identical, "==", True)
    r.check("same_wire_traffic", "datagrams, event routing vs direct wiring",
            composed["net"], "==", direct["net"])
    r.check("only_routing_differs", "routed events, event routing vs direct wiring",
            composed["hops"], ">", direct["hops"])
    return r
