"""Unit tests for addresses, links, and the fabric."""

from types import SimpleNamespace

import pytest

from repro.faults import FaultDriver, FaultPlan, Partition
from repro.net.address import make_id, tier_of
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED

from conftest import Ping, Recorder


# ---------------------------------------------------------------------------
# Addresses
# ---------------------------------------------------------------------------
def test_make_id_formats():
    assert make_id("br", 0) == "br:0"
    assert make_id("ap", 1, 2, 3) == "ap:1.2.3"


def test_make_id_requires_indices():
    with pytest.raises(ValueError):
        make_id("br")


def test_tier_of():
    assert tier_of("ag:1.2") == "ag"
    assert tier_of("mh:0.0.0.1") == "mh"


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------
def test_duplicate_node_id_rejected(fabric):
    Recorder(fabric, "n:0")
    with pytest.raises(ValueError):
        Recorder(fabric, "n:0")


def test_self_link_rejected(fabric):
    with pytest.raises(ValueError):
        fabric.connect("a", "a", WIRED)


def test_send_without_link_raises(sim):
    fabric = Fabric(sim)  # no default spec
    Recorder(fabric, "a")
    Recorder(fabric, "b")
    with pytest.raises(KeyError):
        fabric.send("a", "b", Ping())


def test_default_spec_autocreates_link(fabric):
    a = Recorder(fabric, "a")
    Recorder(fabric, "b")
    a.send("b", Ping())
    fabric.sim.run()
    assert fabric.link("a", "b") is not None


def test_delivery_after_latency(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=4.0))
    a.send("b", Ping(7))
    sim.run()
    assert len(b.received) == 1
    assert sim.now == 4.0
    assert b.received[0].n == 7


def test_envelope_fields_filled(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    a.send("b", Ping())
    sim.run()
    msg = b.received[0]
    assert msg.src == "a" and msg.dst == "b" and msg.sent_at == 0.0


def test_link_is_bidirectional(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    b.send("a", Ping())
    sim.run()
    assert len(a.received) == 1


def test_down_link_drops(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=1.0))
    a.send("b", Ping())
    sim.run()
    assert b.received == []
    assert fabric.messages_dropped == 1


def test_full_loss_link_drops_everything(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=1.0))
    for _ in range(10):
        a.send("b", Ping())
    sim.run()
    assert b.received == []


def test_partial_loss_statistical(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=0.5))
    for _ in range(400):
        a.send("b", Ping())
    sim.run()
    # Expect ~200; allow generous slack for a seeded draw.
    assert 140 <= len(b.received) <= 260


def test_jitter_bounded(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=2.0, jitter=3.0))
    times = []
    orig = b.on_message
    b.on_message = lambda m: times.append(sim.now)  # type: ignore
    for _ in range(50):
        a.send("b", Ping())
    sim.run()
    assert all(2.0 <= t <= 5.0 for t in times)


def test_bandwidth_adds_serialization_delay(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    # 8192-bit default payload at 8192 bits/s = 1s = 1000 ms.
    fabric.connect("a", "b", LinkSpec(latency=1.0, bandwidth_bps=8192 + 64))
    a.send("b", Ping())
    sim.run()
    assert sim.now == pytest.approx(1001.0, abs=10)


def test_crashed_receiver_gets_nothing(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    b.crash()
    a.send("b", Ping())
    sim.run()
    assert b.received == []


def test_crashed_sender_sends_nothing(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    a.crash()
    assert a.send("b", Ping()) is False
    sim.run()
    assert b.received == []


def test_disconnect_removes_link(sim):
    fabric = Fabric(sim)
    Recorder(fabric, "a")
    Recorder(fabric, "b")
    fabric.connect("a", "b", WIRED)
    fabric.disconnect("a", "b")
    assert fabric.link("a", "b") is None


def test_links_listing_sorted(sim):
    fabric = Fabric(sim)
    for n in ("a", "b", "c"):
        Recorder(fabric, n)
    fabric.connect("b", "c", WIRED)
    fabric.connect("a", "b", WIRED)
    eps = [l.endpoints for l in fabric.links]
    assert eps == [("a", "b"), ("b", "c")]


def test_reconnect_updates_spec_and_raises_link(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    dead = fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=1.0))
    a.send("b", Ping())
    link = fabric.connect("a", "b", WIRED)
    assert link is dead and link.spec == WIRED
    a.send("b", Ping())
    sim.run()
    assert len(b.received) == 1 and link.dropped == 1


def test_disconnect_unknown_pair_raises(sim):
    fabric = Fabric(sim)
    Recorder(fabric, "a")
    Recorder(fabric, "b")
    with pytest.raises(KeyError, match="'a' <-> 'b'"):
        fabric.disconnect("a", "b")
    fabric.connect("a", "b", WIRED)
    fabric.disconnect("a", "b")  # first removal succeeds...
    with pytest.raises(KeyError, match="'a' <-> 'b'"):
        fabric.disconnect("a", "b")  # ...the second is an error


# ---------------------------------------------------------------------------
# The send path resolves links through a per-sender index: an entry must
# never outlive its link, in either direction.
# ---------------------------------------------------------------------------
def _connected_pair(sim, default_spec=None):
    fabric = Fabric(sim, default_spec=default_spec)
    a, b = Recorder(fabric, "a"), Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    a.send("b", Ping())               # the index has served this pair
    b.send("a", Ping())
    sim.run()
    return fabric, a, b


def test_send_after_disconnect_raises_in_both_directions(sim):
    fabric, a, b = _connected_pair(sim)
    fabric.disconnect("b", "a")       # either endpoint order names the link
    for node, peer in ((a, "b"), (b, "a")):
        with pytest.raises(KeyError, match="no link"):
            node.send(peer, Ping())
    # Only transmissions that resolved a link are counted.
    assert fabric.messages_sent == 2


def test_reconnect_after_disconnect_sends_over_the_new_spec(sim):
    fabric, a, b = _connected_pair(sim)
    old = fabric.link("a", "b")
    fabric.disconnect("a", "b")
    fabric.connect("a", "b", LinkSpec(latency=7.0))
    t0 = sim.now
    a.send("b", Ping())
    b.send("a", Ping())
    sim.run()
    assert len(a.received) == len(b.received) == 2
    assert sim.now == t0 + 7.0
    assert old.sent == 2 and fabric.link("a", "b").sent == 2
    # ... and a lossy replacement loses: nothing of the old spec is cached.
    fabric.disconnect("a", "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0, loss_prob=1.0))
    a.send("b", Ping())
    sim.run()
    assert len(b.received) == 2 and fabric.messages_dropped == 1


def test_connect_on_existing_pair_swaps_the_spec_under_the_index(sim):
    fabric, a, b = _connected_pair(sim)
    link = fabric.link("a", "b")
    assert fabric.connect("b", "a", LinkSpec(latency=4.0)) is link
    t0 = sim.now
    a.send("b", Ping())
    sim.run()
    assert sim.now == t0 + 4.0 and link.sent == 3


def test_default_spec_autocreates_again_after_disconnect(sim):
    fabric, a, b = _connected_pair(sim, default_spec=LinkSpec(latency=3.0))
    fabric.disconnect("a", "b")
    t0 = sim.now
    a.send("b", Ping())
    sim.run()
    assert sim.now == t0 + 3.0 and len(b.received) == 2
    assert fabric.link("a", "b").spec.latency == 3.0
    assert fabric.messages_sent == 3


def test_link_faults_reach_an_indexed_link(sim):
    fabric, a, b = _connected_pair(sim)
    fabric.connect("b", "a", LinkSpec(latency=1.0, loss_prob=1.0))
    a.send("b", Ping())
    b.send("a", Ping())
    sim.run()
    assert len(a.received) == len(b.received) == 1
    assert fabric.messages_dropped == 2
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    a.send("b", Ping())
    sim.run()
    assert len(b.received) == 2
    # A link cut is a partition of two one-node groups, healed on time.
    t = sim.now
    cut = Partition(at_ms=t + 1.0, heal_at_ms=t + 2.0, groups=[["a"], ["b"]])
    FaultDriver(sim, SimpleNamespace(fabric=fabric),
                FaultPlan([cut])).schedule()
    sim.schedule_at(t + 1.5, a.send, "b", Ping())
    sim.schedule_at(t + 2.5, b.send, "a", Ping())
    sim.run()
    assert (len(a.received), len(b.received)) == (2, 2)
