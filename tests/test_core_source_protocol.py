"""Tests for MulticastSource and the RingNet facade."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.core.source import MulticastSource
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier

from helpers import small_net


# ---------------------------------------------------------------------------
# Source
# ---------------------------------------------------------------------------
def test_cbr_cadence_exact():
    sim, net = small_net()
    src = net.add_source(rate_per_sec=10)  # every 100 ms
    net.start()
    src.start()
    sim.run(until=1_000)
    assert src.sent == 10


def test_poisson_rate_approximate():
    sim, net = small_net()
    src = net.add_source(rate_per_sec=50, pattern="poisson")
    net.start()
    src.start()
    sim.run(until=10_000)
    assert 350 <= src.sent <= 650  # ~500 expected


def test_local_seq_monotone_contiguous():
    sim, net = small_net()
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=2_000)
    assert src.local_seq == src.sent


def test_source_stop_halts():
    sim, net = small_net()
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=1_000)
    src.stop()
    n = src.sent
    sim.run(until=3_000)
    assert src.sent == n


def test_source_invalid_params():
    sim, net = small_net()
    with pytest.raises(ValueError):
        net.add_source(rate_per_sec=0)
    with pytest.raises(ValueError):
        MulticastSource(net.fabric, "src:z", net.cfg, "br:0",
                        rate_per_sec=5, pattern="weird")


# ---------------------------------------------------------------------------
# RingNet facade
# ---------------------------------------------------------------------------
def test_build_creates_all_nes_and_mhs():
    sim = Simulator(seed=1)
    spec = HierarchyShape(n_br=2, ags_per_br=2, aps_per_ag=2, mhs_per_ap=2)
    net = RingNet.build(sim, spec)
    assert len(net.nes) == spec.total_nes
    assert len(net.mobile_hosts) == spec.n_mh


def test_round_robin_source_placement():
    sim, net = small_net(n_br=3)
    s0 = net.add_source(rate_per_sec=1)
    s1 = net.add_source(rate_per_sec=1)
    s2 = net.add_source(rate_per_sec=1)
    assert {s0.corresponding, s1.corresponding, s2.corresponding} == \
        set(net.hierarchy.top_ring.members)


def test_start_idempotent():
    sim, net = small_net()
    net.start()
    net.start()  # must not inject a second token
    sim.run(until=1_000)
    held = sum(ne.tokens_held for ne in net.top_ring_nes())
    rotations_upper = 1_000 / (net.cfg.token_hold_time + 2.0) + 5
    assert held < rotations_upper * 1.5


def test_buffer_reports_shape():
    sim, net = small_net()
    net.start()
    sim.run(until=500)
    reports = net.buffer_reports()
    assert len(reports) == len(net.nes)
    for r in reports:
        assert {"node", "wq", "mq", "wq_peak", "mq_peak"} <= set(r)


def test_member_hosts_excludes_left():
    sim, net = small_net(mhs_per_ap=1)
    net.start()
    sim.run(until=500)
    all_members = net.member_hosts()
    all_members[0].leave()
    sim.run(until=600)
    assert len(net.member_hosts()) == len(all_members) - 1


def test_joined_hosts_are_members_registered_at_their_aps():
    sim, net = small_net(mhs_per_ap=0, aps_per_ag=2)
    net.start()
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    for i in range(4):
        net.add_mobile_host(f"mh:{i}", aps[i])
    sim.run(until=1_000)
    assert sorted(m.guid for m in net.member_hosts()) == \
        ["mh:0", "mh:1", "mh:2", "mh:3"]
    for i in range(4):
        assert net.nes[aps[i]].has_child(f"mh:{i}")


def test_handoff_moves_the_member_to_the_new_ap():
    sim, net = small_net(mhs_per_ap=1)
    net.start()
    sim.run(until=500)
    net.handoff("mh:0.0.0.0", "ap:1.0.0")
    sim.run(until=1_000)
    mh = net.mobile_hosts["mh:0.0.0.0"]
    assert mh.is_member and mh.ap == "ap:1.0.0"
    assert net.nes["ap:1.0.0"].has_child("mh:0.0.0.0")
    assert not net.nes["ap:0.0.0"].has_child("mh:0.0.0.0")


def test_crash_ne_triggers_maintenance():
    sim, net = small_net(n_br=3)
    net.start()
    sim.run(until=500)
    net.crash_ne("br:2", detection_delay=20.0)
    sim.run(until=1_000)
    assert "br:2" not in net.hierarchy.tier_of
    assert net.hierarchy.top_ring.size == 2


def test_crash_ag_leader_reparents_ring():
    sim, net = small_net()
    net.start()
    sim.run(until=500)
    h = net.hierarchy
    ring = h.rings["ring:ag.0"]
    old_leader = ring.leader
    parent_br = h.parent[old_leader]
    net.crash_ne(old_leader, detection_delay=20.0)
    sim.run(until=1_500)
    new_leader = ring.leader
    assert new_leader != old_leader
    assert h.parent[new_leader] == parent_br
    # The BR delivers to the new leader from now on.
    assert net.nes[parent_br].has_child(new_leader)


def test_delivery_survives_ag_leader_crash():
    sim, net = small_net(seed=13)
    from repro.metrics.order_checker import OrderChecker
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=15)
    net.start()
    src.start()
    sim.schedule_at(2_000, lambda: net.crash_ne("ag:0.0"))
    sim.run(until=8_000)
    src.stop()
    sim.run(until=14_000)
    checker.assert_ok()
    # MHs under the crashed AG's reparented APs keep receiving.
    survivors = [m for m in net.member_hosts()]
    assert max(m.delivered_count for m in survivors) >= src.sent - 10


def test_handoff_creates_wireless_link_on_demand():
    sim, net = small_net(mhs_per_ap=1)
    net.start()
    sim.run(until=200)
    assert net.fabric.link("mh:0.0.0.0", "ap:1.1.0") is None
    net.handoff("mh:0.0.0.0", "ap:1.1.0")
    assert net.fabric.link("mh:0.0.0.0", "ap:1.1.0") is not None


def test_total_app_deliveries_accumulates():
    sim, net = small_net(mhs_per_ap=1)
    src = net.add_source(rate_per_sec=10)
    net.start()
    src.start()
    sim.run(until=2_000)
    assert net.total_app_deliveries() > 0


def test_custom_config_propagates_to_nes():
    cfg = ProtocolConfig(tau=2.5, delivery_window=4)
    sim, net = small_net(cfg=cfg)
    assert all(ne.cfg.tau == 2.5 for ne in net.nes.values())
