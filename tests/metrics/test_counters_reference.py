"""The cell-backed counters against the dict-backed bag they replaced.

``reference_counters.Counters`` is the bag verbatim from before counters
became cells.  Both sides run the same operations: increments by name,
increments through cells resolved once up front (the reference through
the handles it had), fresh cell resolutions, reads and clears.  After
every step both must hold the same counters with the same values, and
``snapshot()`` must list them exactly as a twin that saw the same writes
and no reads does.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.counters import Counters
from tests.metrics.reference_counters import Counters as ReferenceCounters

NAMES = (
    "net.sent", "net.sent.fd", "net.sent.abcast", "net.sent.port.rc", "net.bytes",
    "net.bytes.sent.p00", "net.bytes.rc", "rc.sent", "rc.sent.port.rc", "x",
)
PREFIXES = ("", "net.", "net.sent.", "net.sent.port.", "net.bytes.", "rc.", "nope.")
#: Resolved up front, like a component's cells; the others are first
#: resolved by an ``inc``, a fresh ``cell`` or a read.
HELD = NAMES[::2]

names = st.sampled_from(NAMES + ("no.such.counter",))
amounts = st.integers(min_value=0, max_value=5)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), names, amounts),
        st.tuples(st.just("held"), st.integers(0, len(HELD) - 1), amounts),
        st.tuples(st.just("cell"), names, amounts),
        st.tuples(st.just("get"), names),
        st.tuples(st.just("item"), names),
        st.tuples(st.sampled_from(("by_prefix", "total")), st.sampled_from(PREFIXES)),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(operations)
def test_cells_match_the_dict_backed_bag(ops):
    new, unread, ref = Counters(), Counters(), ReferenceCounters()
    held = [(new.cell(name), unread.cell(name)) for name in HELD]
    handles = [ref.handle(name) for name in HELD]
    for op, *args in ops:
        before = list(new.snapshot().items())
        if op == "inc":
            new.inc(*args)
            unread.inc(*args)
            ref.inc(*args)
        elif op == "held":
            index, amount = args
            for cell in held[index]:
                cell.n += amount
            handles[index](amount)
        elif op == "cell":
            name, amount = args
            new.cell(name).n += amount
            unread.cell(name).n += amount
            ref.handle(name)(amount)
        elif op == "clear":
            new.clear()
            unread.clear()
            ref.clear()
        else:
            if op == "get":
                got, want = new.get(*args), ref.get(*args)
            elif op == "item":
                got, want = new[args[0]], ref[args[0]]
            elif op == "by_prefix":
                got, want = new.by_prefix(*args), ref.by_prefix(*args)
            elif op == "total":
                got, want = new.total(*args), ref.total(*args)
            else:
                got, want = new.snapshot(), ref.snapshot()
            assert got == want
            assert list(new.snapshot().items()) == before, f"{op} reordered the snapshot"
        snapshot = new.snapshot()
        assert list(snapshot.items()) == list(unread.snapshot().items())
        assert snapshot == ref.snapshot()
        assert set(snapshot) == set(ref.snapshot())
        assert all(type(value) is int for value in snapshot.values())
        for prefix in PREFIXES:
            assert new.by_prefix(prefix) == ref.by_prefix(prefix)
            assert new.total(prefix) == ref.total(prefix)
        for name in NAMES:
            assert new.get(name) == ref.get(name)
            assert type(new.get(name)) is int
