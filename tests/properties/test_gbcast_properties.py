"""Property-based tests for the generic broadcast invariants.

These drive the whole new-architecture stack with randomly generated
conflict relations, workloads, link jitter, and an optional crash, then
check the defining properties of generic broadcast (Section 3.2.1):

* validity/agreement — every message g-broadcast by a correct member is
  eventually delivered by every correct member, exactly once;
* partial order — two *conflicting* messages are delivered in the same
  relative order at every correct member;
* thriftiness — a run whose messages never conflict (and with no crash)
  never invokes consensus.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gbcast.conflict import ConflictRelation

from tests.conftest import new_group, run_until

CLASSES = ["red", "green", "blue"]

relations = st.lists(
    st.tuples(st.sampled_from(CLASSES), st.sampled_from(CLASSES)), max_size=6
).map(lambda pairs: ConflictRelation.build(CLASSES, pairs))

workloads = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from(CLASSES), st.floats(0.0, 150.0)),
    min_size=1,
    max_size=10,
)


def run_workload(relation, workload, seed, crash=None, count=3):
    world, stacks, _ = new_group(count=count, seed=seed, conflict=relation)
    pids = sorted(stacks)
    for index, (sender, msg_class, at) in enumerate(workload):
        pid = pids[sender % count]
        world.scheduler.at(
            at,
            lambda p=pid, c=msg_class, i=index: stacks[p].gbcast.gbcast_payload(
                ("m", i), c
            )
            if not world.processes[p].crashed
            else None,
        )
    if crash is not None:
        world.crash(pids[crash], at=80.0)
    world.run_for(200.0)
    alive = [p for p in pids if not world.processes[p].crashed]

    def all_sent_delivered():
        sent_by_alive = {
            ("m", i)
            for i, (s, _c, _t) in enumerate(workload)
            if pids[s % count] in alive
        }
        return all(
            sent_by_alive
            <= {
                m.payload
                for m, _path in stacks[p].gbcast.delivered_log
                if not m.msg_class.startswith("_")
            }
            for p in alive
        )

    run_until(world, all_sent_delivered, timeout=30_000)
    return world, stacks, alive


def delivered_sequences(stacks, alive):
    return {
        p: [
            (m.payload, m.msg_class)
            for m, _path in stacks[p].gbcast.delivered_log
            if not m.msg_class.startswith("_")
        ]
        for p in alive
    }


@given(relations, workloads, st.integers(0, 1_000))
@settings(max_examples=25, deadline=None)
def test_agreement_and_no_duplicates(relation, workload, seed):
    world, stacks, alive = run_workload(relation, workload, seed)
    sequences = delivered_sequences(stacks, alive)
    expected = {("m", i) for i in range(len(workload))}
    for seq in sequences.values():
        payloads = [p for p, _c in seq]
        assert len(payloads) == len(set(payloads))  # integrity
        assert set(payloads) == expected            # agreement + validity


@given(relations, workloads, st.integers(0, 1_000))
@settings(max_examples=25, deadline=None)
def test_conflicting_messages_totally_ordered(relation, workload, seed):
    world, stacks, alive = run_workload(relation, workload, seed)
    sequences = list(delivered_sequences(stacks, alive).values())
    reference = sequences[0]
    position = {payload: i for i, (payload, _c) in enumerate(reference)}
    for seq in sequences[1:]:
        for i, (pa, ca) in enumerate(seq):
            for pb, cb in seq[i + 1 :]:
                if relation.conflicts(ca, cb):
                    assert position[pa] < position[pb], (
                        f"conflicting {pa}({ca}) vs {pb}({cb}) ordered differently"
                    )


@given(workloads, st.integers(0, 1_000))
@settings(max_examples=18, deadline=None)
def test_thrifty_no_consensus_without_conflicts(workload, seed):
    relation = ConflictRelation.build(CLASSES, [])  # nothing conflicts
    world, stacks, alive = run_workload(relation, workload, seed)
    assert world.metrics.counters.get("consensus.proposals") == 0
    assert world.metrics.counters.get("gbcast.delivered.closure") == 0


@given(relations, workloads, st.integers(0, 1_000))
@settings(max_examples=25, deadline=None)
def test_per_sender_fifo_is_emergent(relation, workload, seed):
    # Footnote 9: FIFO generic broadcast.  Per-sender send order (by
    # MsgId sequence) must equal per-sender delivery order everywhere.
    world, stacks, alive = run_workload(relation, workload, seed)
    for pid in alive:
        seq = [
            m
            for m, _path in stacks[pid].gbcast.delivered_log
            if not m.msg_class.startswith("_")
        ]
        per_sender: dict[str, list] = {}
        for m in seq:
            per_sender.setdefault(m.sender, []).append(m.id)
        for sender, ids in per_sender.items():
            assert ids == sorted(ids), f"FIFO violated for {sender} at {pid}"


#: A group size and the member that crashes out of it: one of three, or
#: one of four (the schedule the all-ack path must survive with n >= 4).
crashes = st.sampled_from([3, 4]).flatmap(
    lambda count: st.tuples(st.just(count), st.integers(0, count - 1))
)


@given(relations, workloads, st.integers(0, 1_000), crashes)
@settings(max_examples=24, deadline=None)
def test_survivors_agree_after_crash(relation, workload, seed, crash):
    count, crashed = crash
    world, stacks, alive = run_workload(relation, workload, seed, crash=crashed, count=count)
    assert len(alive) == count - 1
    sequences = list(delivered_sequences(stacks, alive).values())
    sets = [set(p for p, _c in seq) for seq in sequences]
    assert all(s == sets[0] for s in sets[1:])
    position = {payload: i for i, (payload, _c) in enumerate(sequences[0])}
    for seq in sequences[1:]:
        for i, (pa, ca) in enumerate(seq):
            for pb, cb in seq[i + 1 :]:
                if relation.conflicts(ca, cb):
                    assert position[pa] < position[pb]


#: Arrivals bunched into a few ms, so closers hold pending messages
#: when they close and ENDSTAGEs carry tails.
bursts = st.lists(
    st.tuples(st.integers(0, 4), st.sampled_from(CLASSES), st.floats(0.0, 8.0)),
    min_size=2,
    max_size=12,
)


@given(relations, bursts, st.integers(0, 1_000), st.sampled_from([3, 4, 5]))
@settings(max_examples=40, deadline=None)
def test_tails_keep_every_property_at_every_group_size(relation, workload, seed, count):
    # ENDSTAGE(k, S, T): whatever the relation, the arrival order and the
    # group size, closure sets and tails together keep conflict order,
    # agreement and per-sender FIFO, and no id is delivered by two paths
    # (fast and closure, or two ENDSTAGEs).
    world, stacks, alive = run_workload(relation, workload, seed, count=count)
    logs = {p: [m for m, _path in stacks[p].gbcast.delivered_log] for p in alive}
    expected = {("m", i) for i in range(len(workload))}
    for messages in logs.values():
        ids = [m.id for m in messages]
        assert len(ids) == len(set(ids))
        assert {m.payload for m in messages} == expected
        per_sender: dict[str, list] = {}
        for mid in ids:
            per_sender.setdefault(mid.sender, []).append(mid)
        assert all(sent == sorted(sent) for sent in per_sender.values())
    reference, *others = logs.values()
    position = {m.id: i for i, m in enumerate(reference)}
    for messages in others:
        for i, a in enumerate(messages):
            for b in messages[i + 1 :]:
                if relation.conflicts(a.msg_class, b.msg_class):
                    assert position[a.id] < position[b.id], (a, b)
