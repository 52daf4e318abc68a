"""Unit tests for the OrderingToken / WTSNP (paper §4.1)."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

import reference_token as ref
from repro.core.messages import TokenPass
from repro.core.token import OrderingToken


def test_assign_allocates_contiguous_globals():
    t = OrderingToken(gid="g")
    e = t.assign("src:0", "br:0", 0, 4)
    assert (e.min_global, e.max_global) == (0, 4)
    assert t.next_global_seq == 5
    e2 = t.assign("src:1", "br:1", 0, 2)
    assert (e2.min_global, e2.max_global) == (5, 7)
    assert t.next_global_seq == 8


def test_assign_empty_run_rejected():
    t = OrderingToken(gid="g")
    with pytest.raises(ValueError):
        t.assign("s", "n", 5, 4)


def test_assign_single_message_run():
    t = OrderingToken(gid="g")
    e = t.assign("s", "n", 7, 7)
    assert e.count == 1
    assert e.global_for(7) == 0


def test_entry_covers_and_maps():
    t = OrderingToken(gid="g", next_global_seq=100)
    e = t.assign("src:0", "br:0", 10, 19)
    assert t.lookup("br:0", 10) is e and t.lookup("br:0", 19) is e
    assert t.lookup("br:0", 9) is None
    assert t.lookup("br:0", 20) is None
    assert t.lookup("br:1", 15) is None
    assert e.global_for(13) == 103


def test_lookup_finds_covering_entry():
    t = OrderingToken(gid="g")
    t.assign("s0", "br:0", 0, 9)
    t.assign("s1", "br:1", 0, 9)
    e = t.lookup("br:1", 5)
    assert e is not None and e.global_for(5) == 15
    assert t.lookup("br:2", 0) is None


def _life(t: OrderingToken) -> list:
    """Hops each entry has left: its expiry hop minus the token's hops."""
    return [e.expires_at - t.hops for e in t.wtsnp]


def test_age_decrements_and_prunes():
    t = OrderingToken(gid="g")
    t.assign("s", "n", 0, 0, ttl_hops=2)
    assert _life(t) == [2]
    t.age()
    assert len(t) == 1 and _life(t) == [1]
    t.age()
    assert len(t) == 0
    assert t.hops == 2


def test_age_keeps_fresh_entries():
    t = OrderingToken(gid="g")
    t.assign("s", "n", 0, 0, ttl_hops=1)
    t.assign("s", "n", 1, 1, ttl_hops=10)
    t.age()
    assert len(t) == 1
    assert t.wtsnp[0].min_local == 1
    assert _life(t) == [9]


def test_snapshot_is_deep_copy():
    t = OrderingToken(gid="g")
    t.assign("s", "n", 0, 5)
    snap = t.snapshot()
    t.assign("s", "n", 6, 9)
    assert len(snap) == 1 and len(t) == 2
    # Entries are shared, so they must be immutable...
    with pytest.raises(dataclasses.FrozenInstanceError):
        snap.wtsnp[0].min_local = 99
    assert t.wtsnp[0].min_local == 0
    # ...and appending to or ageing either copy never changes the other.
    snap.assign("s", "n", 100, 100)
    assert len(t) == 2 and t.next_global_seq == 10
    t.age()
    assert snap.hops == 0 and len(snap) == 2
    snap.age()
    assert t.hops == 1 and [e.min_local for e in t.wtsnp] == [0, 6]


def test_global_seq_never_reused_within_token():
    t = OrderingToken(gid="g")
    seen = set()
    for i in range(20):
        e = t.assign("s", "n", i * 3, i * 3 + 2)
        for g in range(e.min_global, e.max_global + 1):
            assert g not in seen
            seen.add(g)
    assert seen == set(range(60))


# ---------------------------------------------------------------------------
# snapshot() — a list copy over shared entries must behave like deepcopy
# ---------------------------------------------------------------------------
def _populated_token() -> OrderingToken:
    t = OrderingToken(gid="g", token_id=(3, "br:1"), hops=7)
    t.assign("src:0", "br:0", 0, 9, ttl_hops=8)
    t.assign("src:1", "br:1", 0, 4, ttl_hops=5)
    t.assign("src:0", "br:0", 10, 12, ttl_hops=8)
    return t


def test_snapshot_equals_deepcopy():
    t = _populated_token()
    assert t.snapshot() == copy.deepcopy(t)
    assert t.snapshot() == t  # dataclass equality: identical field values


def test_snapshot_equals_deepcopy_across_a_prune():
    t = _populated_token()
    snap = t.snapshot()
    for _ in range(5):
        assert t.age() == 0   # the ttl-5 entry waits for the head's expiry
    t.assign("src:2", "br:2", 0, 1, ttl_hops=3)
    assert len(t) == 4 and len(snap) == 3
    assert t.snapshot() == copy.deepcopy(t)
    assert [t.age() for _ in range(3)] == [0, 0, 4]
    t.assign("src:2", "br:2", 2, 2)
    assert len(t) == 1 and len(snap) == 3
    assert t.snapshot() == copy.deepcopy(t)
    assert snap.snapshot() == copy.deepcopy(snap)
    assert snap.hops == 7 and snap.next_global_seq == 18
    assert [e.min_global for e in snap.wtsnp] == [0, 10, 15]


def test_snapshot_is_independent_of_original():
    t = _populated_token()
    snap = t.snapshot()
    # Mutating the original (the ongoing rotation) must not leak into
    # the retained snapshot...
    t.assign("src:2", "br:2", 0, 1)
    t.age()
    assert len(snap) == 3
    assert snap.next_global_seq == 18
    assert _life(snap)[0] == 8
    # ...and aging the snapshot must not touch the live token.
    before = _life(t)
    snap.age()
    assert _life(t) == before


def test_snapshot_of_snapshot_round_trips():
    t = _populated_token()
    assert t.snapshot().snapshot() == t


def test_token_pass_sharing_entries_pickles():
    """UDP and shard workers pickle a TokenPass whose token shares its
    entries with the sender's New snapshot."""
    t = _populated_token()
    snap = t.snapshot()
    t.age()
    msg, snap2 = pickle.loads(pickle.dumps((TokenPass(t), snap)))
    assert msg.token == t and snap2 == snap
    assert msg.token.wtsnp[0] is snap2.wtsnp[0]   # sharing survives
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.token.wtsnp[0].max_local = 0
    for _ in range(8):
        msg.token.age()
        t.age()
    assert msg.token == t and len(t) == 0 and len(snap2) == 3
    assert snap2.lookup("br:1", 4).global_for(4) == 14


# ---------------------------------------------------------------------------
# Differential: absolute expiry + shared entries vs. the countdown model
# ---------------------------------------------------------------------------
_NODES = ("a", "b", "c")

_OPS = st.lists(st.one_of(
    # assign: which copy, node, run start relative to the node's next
    # unassigned seq (negative overlaps older runs, as a token
    # regenerated from an older snapshot re-mints them), length, TTL.
    st.tuples(st.just("assign"), st.integers(0, 7), st.sampled_from(_NODES),
              st.integers(-6, 2), st.integers(1, 4), st.integers(1, 12)),
    st.tuples(st.just("age"), st.integers(0, 7)),
    st.tuples(st.just("snapshot"), st.integers(0, 7)),
    st.tuples(st.just("lookup"), st.integers(0, 7), st.sampled_from(_NODES),
              st.integers(0, 30)),
), max_size=60)


def _hit(entry):
    return None if entry is None else (entry.min_global, entry.max_global)


def _assert_same(new: OrderingToken, old: ref.OrderingToken) -> None:
    assert (new.next_global_seq, new.hops, len(new)) == (
        old.next_global_seq, old.hops, len(old))
    assert [(e.source, e.min_local, e.max_local, e.ordering_node,
             e.min_global, e.max_global, e.expires_at - new.hops)
            for e in new.wtsnp] == [dataclasses.astuple(e) for e in old.wtsnp]


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_token_matches_countdown_reference(ops):
    # Parallel copies: index 0 is the live token, the rest snapshots.
    copies = [(OrderingToken(gid="g"), ref.OrderingToken(gid="g"))]
    next_local = {n: 0 for n in _NODES}
    for op in ops:
        kind, i = op[0], op[1] % len(copies)
        new, old = copies[i]
        if kind == "assign":
            _, _, node, offset, n, ttl = op
            lo = max(0, next_local[node] + offset)
            got = new.assign(f"src-{node}", node, lo, lo + n - 1, ttl_hops=ttl)
            want = old.assign(f"src-{node}", node, lo, lo + n - 1,
                              ttl_hops=ttl)
            assert _hit(got) == _hit(want)
            next_local[node] = max(next_local[node], lo + n)
        elif kind == "age":
            assert new.age() == old.age()
        elif kind == "snapshot":
            copies.append((new.snapshot(), old.snapshot()))
        else:
            _, _, node, seq = op
            assert _hit(new.lookup(node, seq)) == _hit(old.lookup(node, seq))
        _assert_same(new, old)
    for new, old in copies:
        _assert_same(new, old)
        for node in _NODES:
            for seq in range(next_local[node] + 1):
                assert (_hit(new.lookup(node, seq))
                        == _hit(old.lookup(node, seq)))
