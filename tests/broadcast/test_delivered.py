"""``DeliveredIds`` answers exactly as the ``set`` of ids it replaces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.broadcast.delivered import DeliveredIds
from repro.net.message import MsgId
from repro.net.wire import payload_size

# Low seqs share bytes (holes, complete leading bytes); one in six sits
# past 2**20, on either side of a byte boundary.
seqs = st.integers(0, 47).map(lambda seq: seq if seq < 40 else 2**20 + seq - 44)
ids = st.builds(MsgId, st.sampled_from(["p00", "p01", "p10"]), seqs, st.integers(0, 2))
steps = st.lists(
    st.tuples(st.just("add"), ids)
    | st.tuples(st.just("in"), ids)
    | st.tuples(st.just("ior"), st.sets(ids, max_size=8))
    | st.tuples(st.just("ior_store"), st.lists(ids, max_size=8))
    | st.tuples(st.just("materialise"), st.none()),
    max_size=40,
)


def _agree(store: DeliveredIds, shadow: set[MsgId], probes: set[MsgId]) -> None:
    assert len(store) == len(shadow)
    for mid in probes:
        assert (mid in store) == (mid in shadow), mid


@settings(max_examples=100, deadline=None)
@given(steps)
def test_the_store_agrees_with_a_set_after_every_step(script):
    store, shadow, probes = DeliveredIds(), set(), set()
    for op, arg in script:
        if op == "add":
            store.add(arg)
            shadow.add(arg)
            probes.add(arg)
        elif op == "in":
            probes.add(arg)
        elif op == "ior":
            store |= arg
            shadow |= arg
            probes |= arg
        elif op == "ior_store":
            store |= DeliveredIds(arg)
            shadow |= set(arg)
            probes |= set(arg)
        else:
            materialised = set(store)
            assert materialised == shadow
            assert all(type(mid) is MsgId for mid in materialised)
        _agree(store, shadow, probes)
    assert set(store) == shadow
    assert payload_size(set(store)) == payload_size(shadow)


def test_a_hole_is_kept_and_complete_leading_bytes_go():
    store = DeliveredIds(MsgId("p00", seq) for seq in range(20) if seq != 8)
    stream = store._streams["p00"]
    assert stream.base == 8 and MsgId("p00", 8) not in store
    store.add(MsgId("p00", 8))
    assert stream.base == 16 and len(stream.bits) == 1
    assert set(store) == {MsgId("p00", seq) for seq in range(20)}
    # Below the base everything is delivered; an id past the end is not.
    assert MsgId("p00", 3) in store and MsgId("p00", 20) not in store
    assert MsgId("p00", 3, 1) not in store and MsgId("p01", 3) not in store


def test_incarnations_are_separate_streams():
    store = DeliveredIds([MsgId("p00", 0, 0), MsgId("p00", 0, 2)])
    assert MsgId("p00", 0, 1) not in store
    assert sorted(store) == [MsgId("p00", 0, 0), MsgId("p00", 0, 2)]
    assert len(store) == 2


def test_an_id_counts_from_zero():
    store = DeliveredIds()
    with pytest.raises(ValueError):
        store.add(MsgId("p00", -1))
    assert MsgId("p00", -1) not in store
    store.add(MsgId("p00", 0))
    assert MsgId("p00", -1) not in store
