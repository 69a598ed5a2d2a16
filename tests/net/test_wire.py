"""Wire-byte cost model: structural sizing, Blob, bandwidth term."""

from __future__ import annotations

import dataclasses
import enum
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.view import View
from repro.net.message import AppMessage, MsgId
from repro.net.wire import (
    BOOL_BYTES,
    FLOAT_BYTES,
    HEADER_BYTES,
    INT_BYTES,
    LEN_PREFIX,
    NONE_BYTES,
    Blob,
    payload_size,
    wire_size,
)
from repro.net.topology import LinkModel
from repro.sim.world import World


def test_scalar_sizes():
    assert payload_size(None) == NONE_BYTES
    assert payload_size(True) == BOOL_BYTES
    assert payload_size(False) == BOOL_BYTES
    assert payload_size(0) == INT_BYTES
    assert payload_size(2**80) == INT_BYTES  # modelled fixed-width
    assert payload_size(1.5) == 8
    assert payload_size("abcde") == LEN_PREFIX + 5
    assert payload_size(b"xyz") == LEN_PREFIX + 3


def test_container_sizes_are_recursive():
    assert payload_size(()) == LEN_PREFIX
    assert payload_size(("ab", 1)) == LEN_PREFIX + (LEN_PREFIX + 2) + INT_BYTES
    assert payload_size([1, 2]) == LEN_PREFIX + 2 * INT_BYTES
    assert payload_size({"k": 1}) == LEN_PREFIX + (LEN_PREFIX + 1) + INT_BYTES
    assert payload_size({1, 2, 3}) == LEN_PREFIX + 3 * INT_BYTES
    nested = ("op", 7, ("inner", [None]))
    assert payload_size(nested) == (
        LEN_PREFIX
        + (LEN_PREFIX + 2)
        + INT_BYTES
        + (LEN_PREFIX + (LEN_PREFIX + 5) + (LEN_PREFIX + NONE_BYTES))
    )


def test_blob_sizes_without_allocating():
    blob = Blob(4096)
    assert payload_size(blob) == LEN_PREFIX + 4096
    assert len(blob) == 4096
    assert repr(blob) == "Blob(4096)"  # traces record sizes, never bodies
    assert Blob(0).size == 0
    with pytest.raises(ValueError):
        Blob(-1)


def test_wire_size_adds_fixed_header():
    assert wire_size(("m", 1)) == HEADER_BYTES + payload_size(("m", 1))
    assert wire_size(None) == HEADER_BYTES + NONE_BYTES
    # A 4 KiB body dominates the envelope, as on a real wire.
    assert wire_size(Blob(4096)) > 4096
    assert wire_size(Blob(4096)) < 4096 + 64


def test_dataclass_payloads_size_by_fields():
    view = View(3, ("p00", "p01"))
    # id + members, one slot per dataclass field.
    assert payload_size(view) == LEN_PREFIX + INT_BYTES + payload_size(("p00", "p01"))
    mid = MsgId("p00", 7)
    # sender + seq + incarnation, as when MsgId was a dataclass.
    assert payload_size(mid) == LEN_PREFIX + payload_size("p00") + 2 * INT_BYTES


# ----------------------------------------------------------------------
# The fast paths of payload_size equal the structural rule
# ----------------------------------------------------------------------
def reference_size(obj):
    """The structural rule as one plain recursive walk: exact types, then
    int/float subclasses, then dataclasses by their fields, then the str
    form.  ``MsgId`` was a dataclass of ``(sender, seq, incarnation)``
    when this was the implementation, so it is walked by those fields."""
    if obj is None:
        return NONE_BYTES
    if obj is True or obj is False:
        return BOOL_BYTES
    t = type(obj)
    if t is int:
        return INT_BYTES
    if t is float:
        return FLOAT_BYTES
    if t is str or t is bytes or t is bytearray:
        return LEN_PREFIX + len(obj)
    if t is Blob:
        return LEN_PREFIX + obj.size
    if t in (tuple, list, set, frozenset):
        return LEN_PREFIX + sum(reference_size(item) for item in obj)
    if t is dict:
        return LEN_PREFIX + sum(reference_size(k) + reference_size(v) for k, v in obj.items())
    if isinstance(obj, bool):
        return BOOL_BYTES
    if isinstance(obj, int):
        return INT_BYTES
    if isinstance(obj, float):
        return FLOAT_BYTES
    if t is MsgId:
        names = MsgId._fields
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # An AppMessage's kept size is a slot, not something on the wire.
        names = [field.name for field in dataclasses.fields(obj) if field.name != "_size"]
    else:
        return LEN_PREFIX + len(str(obj))
    return LEN_PREFIX + sum(reference_size(getattr(obj, name)) for name in names)


class Small(enum.IntEnum):
    ONE = 1


short_text = st.text(max_size=6)
msg_ids = st.builds(MsgId, short_text, st.integers(0, 2**40), st.integers(0, 4))
hashables = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | short_text
    | st.binary(max_size=6)
    | st.builds(Blob, st.integers(0, 10_000))
    | st.just(Small.ONE)
    | msg_ids,
    lambda inner: st.lists(inner, max_size=3).map(tuple) | st.frozensets(inner, max_size=3),
    max_leaves=8,
)
payloads = st.recursive(
    hashables | st.binary(max_size=6).map(bytearray),
    lambda inner: st.lists(inner, max_size=3)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(hashables, inner, max_size=3)
    | st.sets(hashables, max_size=3)
    | st.builds(AppMessage, msg_ids, short_text, inner, short_text)
    | st.builds(View, st.integers(0, 9), st.lists(short_text, max_size=4).map(tuple)),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_fast_size_paths_equal_the_structural_rule(payload):
    assert payload_size(payload) == reference_size(payload)
    # Again: an AppMessage anywhere inside now answers from its kept size.
    assert payload_size(payload) == reference_size(payload)
    assert wire_size(payload) == HEADER_BYTES + reference_size(payload)


def test_an_app_message_is_sized_once():
    message = AppMessage(MsgId("p00", 1), "p00", ("body", Blob(100)), "c")
    assert message._size is None
    size = payload_size(message)
    assert message._size == size == reference_size(message)
    # Outside equality, hashing and repr.
    assert message == AppMessage(MsgId("p00", 1), "p00", ("body", Blob(100)), "c")
    assert "_size" not in repr(message)


def test_the_reference_sizer_charges_an_app_message_its_four_wire_fields():
    message = AppMessage(MsgId("p00", 1), "p00", "body", "c")
    payload_size(message)  # sets _size; it must not count
    assert reference_size(message) == LEN_PREFIX + sum(
        reference_size(part) for part in (message.id, "p00", "body", "c")
    )


def test_a_slotted_app_message_reads_as_before():
    mid = MsgId("p01", 4, 1)
    message = AppMessage(mid, "p01", ("deposit", 5), "deposit")
    twin = AppMessage(mid, "p01", ("deposit", 5), "deposit")
    payload_size(twin)
    assert not hasattr(message, "__dict__")
    assert message == twin and hash(message) == hash(twin)  # _size set on one only
    assert hash(message) == hash((mid, "p01", ("deposit", 5), "deposit"))
    assert message != AppMessage(mid, "p01", ("deposit", 5))
    assert str(message) == "p01~1#4[deposit]"
    assert repr(message) == (
        "AppMessage(id=MsgId(sender='p01', seq=4, incarnation=1), sender='p01', "
        "payload=('deposit', 5), msg_class='deposit')"
    )
    assert payload_size(message) == payload_size(twin) == (
        LEN_PREFIX
        + payload_size(mid)
        + payload_size("p01")
        + payload_size(("deposit", 5))
        + payload_size("deposit")
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        message.payload = None


def test_msg_id_hashes_and_orders_as_its_tuple():
    assert hash(MsgId("p00", 3, 1)) == hash(("p00", 3, 1))
    assert hash(MsgId("p01", 7)) == hash(("p01", 7, 0))
    ids = [MsgId(s, q, i) for s in ("p00", "p01", "p10") for q in (0, 1, 12) for i in (0, 2)]
    shuffled = list(ids)
    random.Random(5).shuffle(shuffled)
    assert sorted(shuffled) == sorted(ids, key=lambda m: (m.sender, m.seq, m.incarnation))
    assert sorted(shuffled) == ids
    assert str(MsgId("p00", 3)) == "p00#3"
    assert str(MsgId("p00", 3, 1)) == "p00~1#3"
    assert repr(MsgId("p00", 3)) == "MsgId(sender='p00', seq=3, incarnation=0)"
    # The representation is a tuple: an id equals the plain tuple of its
    # fields (documented on MsgId; no mapping is keyed by both).
    assert MsgId("p00", 3) == ("p00", 3, 0)
    assert isinstance(MsgId("p00", 3), tuple)


def test_transmit_ms_bandwidth_term():
    assert LinkModel(1.0, 1.0).transmit_ms(4096) == 0.0  # off by default
    link = LinkModel(1.0, 1.0, bytes_per_ms=8.0)
    assert link.transmit_ms(4096) == 512.0
    assert link.transmit_ms(0) == 0.0


def _ping_world(link: LinkModel):
    world = World(seed=5, default_link=link)
    world.spawn(2)
    arrivals = []
    world.process("p01").register_port("ping", lambda src, p: arrivals.append(world.now))
    world.transport.u_send("p00", "p01", "ping", ("hello", Blob(4096)), layer="other")
    world.run_for(5_000.0)
    return world, arrivals


def test_bandwidth_term_delays_large_datagrams_deterministically():
    fast = LinkModel(1.0, 0.0)
    slow = LinkModel(1.0, 0.0, bytes_per_ms=8.0)
    _, base = _ping_world(fast)
    _, delayed = _ping_world(slow)
    assert len(base) == len(delayed) == 1
    # The delay grows by exactly wire_size / bytes_per_ms — no RNG draws.
    expected = wire_size(("hello", Blob(4096))) / 8.0
    assert delayed[0] - base[0] == pytest.approx(expected)
    # Same-seed rerun with bandwidth on is still deterministic.
    _, again = _ping_world(slow)
    assert again == delayed


def test_byte_counters_charge_wire_size_per_copy():
    world, _ = _ping_world(LinkModel(1.0, 0.0))
    size = wire_size(("hello", Blob(4096)))
    assert world.metrics.counters.get("net.bytes.other") == size
    assert world.metrics.counters.get("net.bytes") == size
