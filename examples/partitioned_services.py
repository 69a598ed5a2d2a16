"""The Phoenix S/S' partition scenario (Section 2.1.2).

Run with:  python examples/partitioned_services.py

Two independent replicated services S and S' (three replicas each),
membership at the *process* level (Phoenix).  A network partition puts
the majority of S in component Pi1 and the majority of S' in component
Pi2.  Both services keep processing updates in their own majority
component — the improvement Phoenix brought over Isis's processor-level
membership, and a behaviour the new architecture inherits.
"""

from repro.net.topology import LinkModel
from repro.sim.world import World, build_group
from repro.traditional.phoenix import PhoenixStack


def main() -> None:
    world = World(seed=9, default_link=LinkModel(1.0, 1.0))
    # A group is spawned after the processes the world already has.
    service_s = build_group(world, 3, PhoenixStack, exclusion_timeout=250.0)   # p00 p01 p02
    service_sp = build_group(world, 3, PhoenixStack, exclusion_timeout=250.0)  # p03 p04 p05
    world.start()
    world.run_for(100.0)

    pi1 = ["p00", "p01", "p03"]
    pi2 = ["p02", "p04", "p05"]
    print(f"partitioning: Pi1={pi1}  Pi2={pi2}")
    world.split([pi1, pi2])

    # S has majority {p00,p01} in Pi1; S' has majority {p04,p05} in Pi2.
    service_s["p00"].abcast_payload("S: update during partition")
    service_sp["p04"].abcast_payload("S': update during partition")

    ok = world.run_until(
        lambda: "S: update during partition" in service_s["p01"].delivered_payloads()
        and "S': update during partition" in service_sp["p05"].delivered_payloads(),
        timeout=60_000,
    )
    assert ok, "one of the services failed to progress during the partition"

    print("\nduring the partition:")
    print(f"  service S  view (majority side): {service_s['p00'].view()}")
    print(f"  service S' view (majority side): {service_sp['p04'].view()}")
    print(f"  S  delivered at p01: {service_s['p01'].delivered_payloads()}")
    print(f"  S' delivered at p05: {service_sp['p05'].delivered_payloads()}")
    print(
        "\nBoth services progressed in different network components — "
        "process-level membership at work (Section 2.1.2)."
    )


if __name__ == "__main__":
    main()
