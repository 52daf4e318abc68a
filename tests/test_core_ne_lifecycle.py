"""Tests for NE lifecycle, view updates, and message/size plumbing."""

from repro.core.messages import (
    DeliverDown,
    GapRequest,
    HandoffRegister,
    RingOrdered,
    RingRaw,
    SourceData,
    TokenPass,
    WirelessDeliver,
)
from repro.core.token import OrderingToken
from repro.net.message import DEFAULT_SIZE_BITS

from helpers import run_with_traffic, small_net


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------
def test_start_arms_timers_only_once():
    sim, net = small_net()
    ne = net.nes["br:0"]
    ne.start()
    ne.start()
    assert ne._maint_timer.running
    assert ne._tau_timer.running  # top-ring node runs Order-Assignment


def test_non_top_nodes_skip_tau_timer():
    sim, net = small_net()
    net.start()
    ag = net.nes["ag:0.0"]
    assert ag._maint_timer.running
    assert not ag._tau_timer.running


def test_stop_disarms_timers():
    sim, net = small_net()
    net.start()
    ne = net.nes["br:0"]
    ne.stop()
    assert not ne._tau_timer.running
    assert not ne._maint_timer.running


def test_update_view_promotion_to_top_ring_starts_tau():
    sim, net = small_net()
    net.start()
    ag = net.nes["ag:0.0"]
    assert not ag._tau_timer.running
    # Promote the AG into the top (ordering) tier, then let the facade
    # push the new views out as it does after every topology change.
    from repro.topology.tiers import Tier
    net.hierarchy.tier_of["ag:0.0"] = Tier.BR
    net._refresh_views()
    assert ag.view.in_top_ring
    assert ag._tau_timer.running
    # An AG that stays in its ring is left alone.
    assert not net.nes["ag:0.1"]._tau_timer.running


def test_crashed_ne_ignores_messages():
    sim, net = small_net()
    net.start()
    src = net.add_source(rate_per_sec=20)
    src.start()
    sim.run(until=500)
    ap = net.nes["ap:0.0.0"]
    ap.crash()
    rx_before = ap.rx_count
    sim.run(until=1_500)
    assert ap.rx_count == rx_before


def test_buffer_report_contents():
    sim, net, _ = run_with_traffic(until=1_000, check_order=False)
    rep = net.nes["br:0"].buffer_report()
    assert rep["node"] == "br:0"
    assert rep["mq_rear"] >= rep["mq_front"] - 1


# ---------------------------------------------------------------------------
# Message classes
# ---------------------------------------------------------------------------
def test_message_kinds():
    token = OrderingToken(gid="g")
    assert TokenPass(token).kind == "TokenPass"
    assert SourceData("g", "s", 0, None, 0.0).kind == "SourceData"
    assert GapRequest("g", 1, 2).kind == "GapRequest"


def test_control_messages_are_small():
    token = OrderingToken(gid="g")
    assert TokenPass(token).size_bits < DEFAULT_SIZE_BITS
    assert GapRequest("g", 0, 1).size_bits < DEFAULT_SIZE_BITS
    assert HandoffRegister("g", "mh:0", 5).size_bits < DEFAULT_SIZE_BITS


def test_deliver_down_is_ring_ordered_subtype():
    msg = DeliverDown("g", 1, "br:0", "s", 1, None, 0.0)
    assert isinstance(msg, RingOrdered)
    wmsg = WirelessDeliver("g", 1, "br:0", "s", 1, None, 0.0)
    assert isinstance(wmsg, RingOrdered)


def test_ring_raw_carries_ordering_node():
    msg = RingRaw("g", "br:1", "src:0", 7, ("p",), 3.0)
    assert msg.ordering_node == "br:1"
    assert msg.local_seq == 7
    assert msg.created_at == 3.0


# ---------------------------------------------------------------------------
# Determinism at the protocol level
# ---------------------------------------------------------------------------
def test_full_protocol_run_is_reproducible():
    def transcript(seed):
        sim, net, _ = run_with_traffic(seed=seed, n_sources=2, rate=25,
                                       until=3_000, check_order=False)
        out = []
        for m in net.member_hosts():
            out.append((m.guid, tuple(m.delivered_seqs())))
        return sorted(out)

    assert transcript(77) == transcript(77)


def test_trace_counts_match_between_identical_runs():
    def counts(seed):
        sim, net, _ = run_with_traffic(seed=seed, until=2_000,
                                       check_order=False)
        return dict(sim.trace.counts)

    assert counts(5) == counts(5)
