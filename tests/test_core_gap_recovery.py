"""Tests for local-scope retransmission / gap recovery (§4.2.3)."""

from repro.core.config import ProtocolConfig
from repro.core.datastructures import BufferedMessage
from repro.core.messages import GapRequest, GapUnavailable
from repro.metrics.order_checker import OrderChecker
from repro.net.link import LinkSpec

from helpers import run_with_traffic, small_net


def bm(seq: int) -> BufferedMessage:
    return BufferedMessage(global_seq=seq, source="s", local_seq=seq,
                           ordering_node="br:0", payload=("s", seq))


def test_gap_request_served_from_parent_buffer():
    sim, net = small_net()
    net.start()
    sim.run(until=100)
    ag = net.nes["ag:0.0"]
    ap = net.nes["ap:0.0.0"]
    for seq in range(5):
        ag.mq.insert(bm(seq))
    # The AP asks for 1..3; the AG should re-deliver them.
    ap.chan.send("ag:0.0", GapRequest(net.cfg.gid, 1, 3))
    sim.run(until=500)
    assert ap.mq.has(1) and ap.mq.has(2) and ap.mq.has(3)
    assert ag.gap_fills_served == 3


def test_gap_request_unavailable_for_pruned_range():
    sim, net = small_net()
    net.start()
    sim.run(until=100)
    ag = net.nes["ag:0.0"]
    ap = net.nes["ap:0.0.0"]
    # The AG pruned everything below 10.
    ag.mq.valid_front = 10
    ag.mq.front = 9
    ag.mq.rear = 9
    ap.mq.rear = 5  # AP knows later messages exist
    ap.chan.send("ag:0.0", GapRequest(net.cfg.gid, 0, 4))
    sim.run(until=500)
    # The AP tombstoned the unobtainable range.
    assert all(ap.mq.get(s) is not None and ap.mq.get(s).really_lost
               for s in range(0, 5))


def test_gap_request_for_future_seqs_is_silent():
    sim, net = small_net()
    net.start()
    sim.run(until=100)
    ag = net.nes["ag:0.0"]
    ap = net.nes["ap:0.0.0"]
    ap.chan.send("ag:0.0", GapRequest(net.cfg.gid, 100, 105))
    sim.run(until=500)
    # Neither served nor condemned: the AG does not have them *yet*.
    assert not any(ap.mq.has(s) for s in range(100, 106))
    assert ag.gap_fills_served == 0


def test_gap_unavailable_tombstones_range():
    sim, net = small_net()
    net.start()
    sim.run(until=100)
    ap = net.nes["ap:0.0.0"]
    ap.mq.rear = 6
    ap.handle_gap_unavailable(GapUnavailable(net.cfg.gid, 2, 4))
    for s in (2, 3, 4):
        assert ap.mq.get(s).really_lost


def test_end_to_end_under_heavy_wired_loss():
    # Lossy *wired* links stress ring forwarding + delivery recovery.
    from repro.core.protocol import RingNet
    from repro.sim.engine import Simulator
    from repro.topology.builder import HierarchyShape
    sim = Simulator(seed=21)
    cfg = ProtocolConfig(gap_timeout=40.0)
    net = RingNet.build(sim, HierarchyShape(n_br=3, ags_per_br=2,
                                            aps_per_ag=1, mhs_per_ap=1),
                        cfg=cfg,
                        wired=LinkSpec(latency=2.0, jitter=0.5, loss_prob=0.05))
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=15)
    net.start()
    src.start()
    sim.run(until=6_000)
    src.stop()
    sim.run(until=14_000)
    checker.assert_ok()
    counts = [m.delivered_count + m.tombstones for m in net.member_hosts()]
    # Everyone accounted for (delivered or recorded-lost) nearly all.
    assert min(counts) >= src.sent - 5


def test_end_to_end_under_heavy_wireless_loss():
    from repro.core.protocol import RingNet
    from repro.sim.engine import Simulator
    from repro.topology.builder import HierarchyShape
    sim = Simulator(seed=22)
    net = RingNet.build(sim, HierarchyShape(n_br=2, ags_per_br=2,
                                            aps_per_ag=1, mhs_per_ap=2),
                        wireless=LinkSpec(latency=5.0, jitter=2.0,
                                          loss_prob=0.15))
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=6_000)
    src.stop()
    sim.run(until=14_000)
    checker.assert_ok()
    counts = [m.delivered_count + m.tombstones for m in net.member_hosts()]
    assert min(counts) >= src.sent - 5


def test_gap_state_resets_when_hole_fills():
    sim, net = small_net()
    net.start()
    sim.run(until=100)
    ap = net.nes["ap:0.0.0"]
    ap.mq.insert(bm(1))  # hole at 0
    ap.gap_check()
    assert ap._gap_state is not None
    ap.mq.insert(bm(0))
    ap.gap_check()
    assert ap._gap_state is None
