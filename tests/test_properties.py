"""Property-based tests (hypothesis) for core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.datastructures import BufferedMessage, MessageQueue, WorkingTable
from repro.core.token import OrderingToken
from repro.metrics.report import percentile, summarize
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel, Segment
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.topology.ring import LogicalRing


def bm(seq: int) -> BufferedMessage:
    return BufferedMessage(global_seq=seq, source="s", local_seq=seq,
                           ordering_node="n", payload=seq)


# ---------------------------------------------------------------------------
# MessageQueue invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=200), max_size=80))
def test_mq_pointers_monotone_under_any_insert_order(seqs):
    mq = MessageQueue()
    last_front = mq.front
    for s in seqs:
        mq.insert(bm(s))
        mq.mark_delivered(s)
        mq.advance_front()
        assert mq.front >= last_front
        last_front = mq.front
        assert mq.valid_front <= mq.front + 1
        assert mq.rear >= mq.front or mq.rear == -1


@given(st.sets(st.integers(min_value=0, max_value=100), max_size=60))
def test_mq_front_is_longest_delivered_prefix(seqs):
    mq = MessageQueue()
    for s in seqs:
        mq.insert(bm(s))
        mq.mark_delivered(s)
    mq.advance_front()
    expected = -1
    while expected + 1 in seqs:
        expected += 1
    assert mq.front == expected


@given(st.sets(st.integers(min_value=0, max_value=100), min_size=1,
               max_size=60),
       st.integers(min_value=0, max_value=20))
def test_mq_prune_never_loses_undelivered(seqs, retention):
    mq = MessageQueue()
    delivered = {s for s in seqs if s % 2 == 0}
    for s in seqs:
        mq.insert(bm(s))
        if s in delivered:
            mq.mark_delivered(s)
    mq.advance_front()
    mq.prune(retention)
    for s in seqs - delivered:
        assert mq.has(s)


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=100))
def test_mq_insert_idempotent(seqs):
    mq = MessageQueue()
    accepted = sum(1 for s in seqs if mq.insert(bm(s)))
    assert accepted == len(set(seqs))
    assert mq.occupancy == len(set(seqs))


# ---------------------------------------------------------------------------
# OrderingToken invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=1, max_value=20), max_size=40))
def test_token_global_seqs_partition_the_integers(run_lengths):
    """Assignments mint each global seq exactly once, contiguously."""
    t = OrderingToken(gid="g")
    local = 0
    covered = []
    for n in run_lengths:
        e = t.assign("s", "node", local, local + n - 1, ttl_hops=10_000)
        covered.extend(range(e.min_global, e.max_global + 1))
        local += n
    assert covered == list(range(t.next_global_seq))


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                          st.integers(min_value=1, max_value=10)),
                max_size=30))
def test_token_lookup_matches_assignment(runs):
    t = OrderingToken(gid="g")
    next_local = {"a": 0, "b": 0, "c": 0}
    expected = {}
    for node, n in runs:
        lo = next_local[node]
        e = t.assign(f"src-{node}", node, lo, lo + n - 1, ttl_hops=10_000)
        for i in range(n):
            expected[(node, lo + i)] = e.min_global + i
        next_local[node] = lo + n
    for (node, lseq), g in expected.items():
        found = t.lookup(node, lseq)
        assert found is not None
        assert found.global_for(lseq) == g


# ---------------------------------------------------------------------------
# WorkingTable invariants
# ---------------------------------------------------------------------------
@given(st.dictionaries(st.sampled_from(["c1", "c2", "c3", "c4"]),
                       st.lists(st.integers(min_value=0, max_value=100),
                                max_size=20),
                       min_size=1))
def test_wt_min_across_is_true_min(progress):
    wt = WorkingTable()
    for child in progress:
        wt.add_child(child, -1)
    for child, seqs in progress.items():
        for s in seqs:
            wt.record_delivered(child, s)
    expected = min(max(seqs, default=-1) for seqs in progress.values())
    assert wt.min_delivered_across() == expected


# ---------------------------------------------------------------------------
# LogicalRing invariants
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=20, unique=True))
def test_ring_next_prev_inverse(ids):
    ring = LogicalRing("r", [f"n{i}" for i in ids])
    for node in ring:
        assert ring.prev_of(ring.next_of(node)) == node
        assert ring.next_of(ring.prev_of(node)) == node


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=2,
                max_size=20, unique=True),
       st.data())
def test_ring_walk_visits_all_once(ids, data):
    ring = LogicalRing("r", [f"n{i}" for i in ids])
    start = data.draw(st.sampled_from(ring.members))
    seen = []
    node = start
    for _ in range(len(ring)):
        seen.append(node)
        node = ring.next_of(node)
    assert node == start
    assert sorted(seen) == sorted(ring.members)


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=2,
                max_size=12, unique=True),
       st.data())
def test_ring_removal_preserves_cycle(ids, data):
    ring = LogicalRing("r", [f"n{i}" for i in ids])
    victim = data.draw(st.sampled_from(ring.members))
    ring.remove_member(victim)
    assert victim not in ring
    assert ring.leader in ring
    # Remaining members still form one cycle.
    node = ring.members[0]
    for _ in range(len(ring)):
        node = ring.next_of(node)
    assert node == ring.members[0]


# ---------------------------------------------------------------------------
# Transport dedup invariant
# ---------------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                max_size=60))
def test_transport_seen_floor_compaction(seqs):
    """The receiver-side dedup filter is exactly 'seen before' regardless
    of arrival order and floor compaction."""
    fabric = Fabric(Simulator(seed=0), default_spec=LinkSpec(latency=1.0))
    NetNode(fabric, "p")
    chan = ReliableChannel(NetNode(fabric, "me"))
    seen_ref = set()
    for s in seqs:
        seg = Segment(s, Message())
        seg.src, seg.dst, seg.sent_at = "p", "me", 0.0
        fresh = chan.accept(seg) is not None
        assert fresh == (s not in seen_ref)
        seen_ref.add(s)
    # Memory bound: the sparse set holds only the out-of-order suffix.
    peer = chan._peers["p"]
    assert all(s > peer.floor for s in peer.sparse)
    assert seen_ref == set(range(peer.floor)) | peer.sparse


# ---------------------------------------------------------------------------
# Percentile / summary sanity
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=0, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=200))
def test_summary_ordering(values):
    s = summarize(values)
    assert s["p50"] <= s["p95"] <= s["p99"] <= s["max"]
    # One ulp of slack: numpy's mean of identical values can differ in
    # the last bit from the values themselves.
    eps = 1e-9 * max(1.0, s["max"])
    assert min(values) - eps <= s["mean"] <= s["max"] + eps


@given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                min_size=1, max_size=100),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_range(values, q):
    p = percentile(values, q)
    assert min(values) <= p <= max(values)


# ---------------------------------------------------------------------------
# RandomStreams reproducibility
# ---------------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1,
                                                          max_size=20))
@settings(max_examples=25)
def test_streams_reproducible_for_any_seed_and_name(seed, name):
    a = RandomStreams(seed).get(name).random()
    b = RandomStreams(seed).get(name).random()
    assert a == b
