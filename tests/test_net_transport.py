"""Unit tests for the reliable channel (ack/retransmit/give-up/dedup)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel, Segment
from repro.sim.engine import Simulator

from conftest import Ping, ReliableRecorder


def make_pair(sim, loss=0.0, latency=1.0, rto=10.0, max_retries=5):
    fabric = Fabric(sim)
    a = ReliableRecorder(fabric, "a", rto=rto, max_retries=max_retries)
    b = ReliableRecorder(fabric, "b", rto=rto, max_retries=max_retries)
    fabric.connect("a", "b", LinkSpec(latency=latency, loss_prob=loss))
    return fabric, a, b


def test_lossless_delivery(sim):
    _, a, b = make_pair(sim)
    for i in range(5):
        a.chan.send("b", Ping(i))
    sim.run()
    # All five arrive exactly once at t=1 (zero jitter); the channel
    # promises exactly-once, not in-order — simultaneous arrivals land
    # in causal-key order, so only the delivered *set* is pinned here.
    assert sorted(p.n for p in b.payloads) == [0, 1, 2, 3, 4]
    assert a.chan.stats.acked == 5
    assert a.chan.stats.retransmitted == 0


def test_ack_callback_fires(sim):
    _, a, b = make_pair(sim)
    a.chan.send("b", Ping(3))
    sim.run()
    assert len(a.acked) == 1
    assert a.acked[0][0] == "b"
    assert a.acked[0][1].n == 3


def test_retransmission_overcomes_loss(sim):
    _, a, b = make_pair(sim, loss=0.5, max_retries=10)
    for i in range(30):
        a.chan.send("b", Ping(i))
    sim.run(until=10_000)
    assert sorted(p.n for p in b.payloads) == list(range(30))
    assert a.chan.stats.retransmitted > 0


def test_duplicates_suppressed(sim):
    _, a, b = make_pair(sim, loss=0.4, max_retries=20)
    for i in range(20):
        a.chan.send("b", Ping(i))
    sim.run(until=20_000)
    # Exactly-once app delivery despite retransmissions.
    assert len(b.payloads) == 20
    assert len({p.n for p in b.payloads}) == 20


def test_give_up_after_max_retries(sim):
    _, a, b = make_pair(sim, loss=1.0, max_retries=2)
    a.chan.send("b", Ping(9))
    sim.run(until=1_000)
    assert len(a.gave_up) == 1
    assert a.gave_up[0][0] == "b"
    assert a.gave_up[0][1].n == 9
    assert a.chan.stats.gave_up == 1
    assert a.chan.in_flight == 0


def test_retry_count_respected(sim):
    _, a, b = make_pair(sim, loss=1.0, max_retries=3)
    a.chan.send("b", Ping())
    sim.run(until=1_000)
    # original + 3 retries = 4 transmissions attempted
    assert a.chan.stats.retransmitted == 3


def test_zero_retries_fire_and_forget(sim):
    _, a, b = make_pair(sim, loss=1.0, max_retries=0)
    a.chan.send("b", Ping())
    sim.run(until=1_000)
    assert a.chan.stats.retransmitted == 0
    assert a.chan.stats.gave_up == 1


def test_cancel_all_abandons_outstanding(sim):
    _, a, b = make_pair(sim, loss=1.0)
    a.chan.send("b", Ping())
    a.chan.send("b", Ping())
    a.chan.cancel_all("b")
    sim.run(until=1_000)
    assert a.chan.in_flight == 0
    assert a.gave_up == []  # cancelled, not given up


def test_an_outstanding_segment_pickles_only_its_wire_fields(sim):
    """The shard export and the UDP fabric pickle segments; the sender's
    retry budget and armed RTO handle (which reaches the channel's
    callbacks) must not travel with them."""
    _, a, _ = make_pair(sim)
    a.chan.send("b", Ping(7))
    seg = a.chan._peers["b"].outstanding[0]
    assert seg.rto_event is not None and seg.retries_left == 5
    copy = pickle.loads(pickle.dumps(seg))
    assert (copy.src, copy.dst, copy.sent_at, copy.seq, copy.size_bits) == \
        (seg.src, seg.dst, seg.sent_at, seg.seq, seg.size_bits)
    assert copy.payload.n == 7
    assert not hasattr(copy, "rto_event")
    assert not hasattr(copy, "retries_left")


def test_crashed_sender_stops_retransmitting(sim):
    _, a, b = make_pair(sim, loss=1.0, max_retries=5)
    a.chan.send("b", Ping())
    sim.schedule(5.0, a.crash)
    sim.run(until=1_000)
    assert a.chan.stats.gave_up == 0  # frozen, neither delivered nor dropped


def test_per_destination_sequencing(sim):
    fabric = Fabric(sim)
    a = ReliableRecorder(fabric, "a")
    b = ReliableRecorder(fabric, "b")
    c = ReliableRecorder(fabric, "c")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    fabric.connect("a", "c", LinkSpec(latency=1.0))
    s1 = a.chan.send("b", Ping(1))
    s2 = a.chan.send("c", Ping(2))
    assert s1 == 0 and s2 == 0  # independent seq spaces
    sim.run()
    assert b.payloads[0].n == 1 and c.payloads[0].n == 2


def test_invalid_params_rejected(sim):
    fabric = Fabric(sim)
    node = ReliableRecorder(fabric, "x")
    with pytest.raises(ValueError):
        ReliableChannel(node, rto=0.0)
    with pytest.raises(ValueError):
        ReliableChannel(node, max_retries=-1)


def test_payload_envelope_propagated(sim):
    _, a, b = make_pair(sim)
    a.chan.send("b", Ping(5))
    sim.run()
    p = b.payloads[0]
    assert p.src == "a" and p.dst == "b" and p.sent_at == 0.0


def test_non_transport_message_passes_through(sim):
    fabric, a, b = make_pair(sim)
    # A raw (unwrapped) message must come back from accept() unchanged.
    raw = Ping(1)
    assert b.chan.accept(raw) is raw


def test_heavy_bidirectional_traffic(sim):
    _, a, b = make_pair(sim, loss=0.2, max_retries=10)
    for i in range(25):
        a.chan.send("b", Ping(i))
        b.chan.send("a", Ping(100 + i))
    sim.run(until=20_000)
    assert len(a.payloads) == 25 and len(b.payloads) == 25


def test_ack_cancels_rto_event_in_scheduler(sim):
    """An acked segment leaves no armed retransmission event behind —
    the heap-leak half of the lazy-cancel fix, seen from the channel."""
    _, a, b = make_pair(sim)
    for i in range(10):
        a.chan.send("b", Ping(i))
    sim.run()
    assert a.chan.in_flight == 0
    assert sim.pending == 0          # every RTO event cancelled or fired
    assert a.chan.stats.retransmitted == 0


def test_cancel_all_disarms_rto_events(sim):
    _, a, b = make_pair(sim, latency=1.0, rto=50.0)
    for i in range(5):
        a.chan.send("b", Ping(i))
    a.chan.cancel_all()
    before = sim.events_processed
    sim.run()
    # Only the 5 in-flight segments + 5 acks arrive; no timeout fires.
    assert a.chan.stats.retransmitted == 0
    assert a.chan.stats.gave_up == 0
    assert sim.events_processed == before + 10


# ---------------------------------------------------------------------------
# Per-peer records: cancel_all, links that go away under outstanding
# segments, and the dedup filter against a reference model
# ---------------------------------------------------------------------------
def make_star(sim, peers=("x", "y"), rto=10.0):
    fabric = Fabric(sim)
    hub = ReliableRecorder(fabric, "hub", rto=rto)
    nodes = {p: ReliableRecorder(fabric, p, rto=rto) for p in peers}
    for p in peers:
        fabric.connect("hub", p, LinkSpec(latency=1.0))
    return fabric, hub, nodes


def test_cancel_all_for_one_peer_leaves_the_others_armed(sim):
    fabric, hub, _ = make_star(sim)
    fabric.connect("hub", "x", LinkSpec(latency=1.0, loss_prob=1.0))
    for i in range(3):
        hub.chan.send("x", Ping(i))
    for i in range(2):
        hub.chan.send("y", Ping(10 + i))
    pending = sim.pending
    hub.chan.cancel_all("x")
    assert hub.chan.in_flight == 2
    assert sim.pending == pending - 3         # x's three RTOs, nothing of y's
    hub.chan.cancel_all("never-a-peer")       # unknown peer: no-op
    assert hub.chan.in_flight == 2
    sim.run(until=5.0)
    assert sorted(p.n for _, p in hub.acked) == [10, 11]   # y's acks fire
    assert hub.chan.in_flight == 0
    sim.run(until=1_000.0)
    assert hub.gave_up == [] and hub.chan.stats.retransmitted == 0
    assert hub.chan.peak_in_flight_by_dst == {"x": 3, "y": 2}


def test_peer_numbering_and_dedup_survive_cancel_all(sim):
    """A peer that comes back continues its sequence numbers, so its
    new segments are not mistaken for duplicates of the old ones."""
    _, hub, nodes = make_star(sim)
    assert [hub.chan.send("x", Ping(i)) for i in range(3)] == [0, 1, 2]
    sim.run()
    hub.chan.cancel_all("x")
    nodes["x"].chan.cancel_all("hub")
    assert hub.chan.send("x", Ping(3)) == 3
    sim.run()
    assert sorted(p.n for p in nodes["x"].payloads) == [0, 1, 2, 3]
    assert nodes["x"].chan.stats.duplicates == 0


def test_rto_after_disconnect_fails_like_any_send_without_a_link(sim):
    fabric, hub, nodes = make_star(sim)
    fabric.connect("hub", "x", LinkSpec(latency=1.0, loss_prob=1.0))
    hub.chan.send("x", Ping())
    fabric.disconnect("hub", "x")
    with pytest.raises(KeyError, match="no link 'hub' <-> 'x'"):
        sim.run(until=50.0)                   # the RTO retransmits at t=10
    # Reconnected with a new spec, the next RTO goes over the new link.
    fabric.connect("hub", "x", LinkSpec(latency=3.0))
    hub.chan.send("x", Ping(7))
    sim.run(until=sim.now + 3.0)
    assert [p.n for p in nodes["x"].payloads] == [7]


def test_rto_after_disconnect_autocreates_from_default_spec(sim):
    fabric = Fabric(sim, default_spec=LinkSpec(latency=2.0))
    a = ReliableRecorder(fabric, "a", rto=10.0)
    b = ReliableRecorder(fabric, "b", rto=10.0)
    fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=1.0))
    a.chan.send("b", Ping(1))
    fabric.disconnect("a", "b")
    sim.run(until=13.0)                       # RTO at 10 + default latency 2
    assert [p.n for p in b.payloads] == [1]
    assert a.chan.stats.retransmitted == 1 and len(a.acked) == 0
    sim.run(until=20.0)
    assert len(a.acked) == 1 and a.chan.in_flight == 0


def _segment(src, seq):
    seg = Segment(seq, Ping(seq))
    seg.src, seg.dst, seg.sent_at = src, "me", 0.0
    return seg


@given(st.lists(st.tuples(st.sampled_from(["p", "q"]),
                          st.integers(min_value=0, max_value=12)),
                max_size=80))
def test_dedup_matches_a_reference_model(arrivals):
    """Any arrival order with duplicates, two peers interleaved: each
    payload comes out exactly once, and the floor/sparse state is the
    reference's — through the in-order fast path and the slow path."""
    fabric = Fabric(Simulator(seed=0), default_spec=LinkSpec(latency=1.0))
    for peer in ("p", "q"):
        NetNode(fabric, peer)
    chan = ReliableChannel(NetNode(fabric, "me"))
    seen = {"p": set(), "q": set()}           # the reference model
    duplicates = 0
    for src, seq in arrivals:
        payload = chan.accept(_segment(src, seq))
        if seq in seen[src]:
            duplicates += 1
            assert payload is None
        else:
            seen[src].add(seq)
            assert payload.n == seq and payload.src == src
    assert chan.stats.duplicates == duplicates
    assert chan.stats.delivered == len(seen["p"]) + len(seen["q"])
    for src, ref in seen.items():
        if not ref:
            continue
        floor = next(n for n in range(len(ref) + 1) if n not in ref)
        peer = chan._peers[src]
        assert peer.floor == floor
        assert peer.sparse == {s for s in ref if s > floor}
