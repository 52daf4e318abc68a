"""Tests for dynamic-path mode (§3 path building) and cold-AP handling."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.datastructures import MessageQueue, BufferedMessage
from repro.experiments import registry
from repro.experiments.runner import Harvest, observed_scenario
from repro.metrics.order_checker import OrderChecker
from repro.topology.tiers import Tier

from helpers import small_net, spec_path


def dyn_cfg(**kw) -> ProtocolConfig:
    return ProtocolConfig(static_ap_paths=False, **kw)


# ---------------------------------------------------------------------------
# MessageQueue.anchor
# ---------------------------------------------------------------------------
def test_anchor_rebases_empty_queue():
    mq = MessageQueue()
    mq.anchor(100)
    assert mq.front == 99 and mq.valid_front == 100 and mq.rear == 99
    assert mq.insert(BufferedMessage(global_seq=100, source="s", local_seq=0,
                                     ordering_node="n"))
    assert not mq.insert(BufferedMessage(global_seq=50, source="s",
                                         local_seq=0, ordering_node="n"))


def test_anchor_rejects_nonempty_queue():
    mq = MessageQueue()
    mq.insert(BufferedMessage(global_seq=0, source="s", local_seq=0,
                              ordering_node="n"))
    with pytest.raises(ValueError):
        mq.anchor(10)


# ---------------------------------------------------------------------------
# Dynamic-path mode behaviour
# ---------------------------------------------------------------------------
def test_aps_start_cold_in_dynamic_mode():
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg())
    src = net.add_source(rate_per_sec=30)
    net.start()
    src.start()
    sim.run(until=2_000)
    aps = [net.nes[a] for a in net.hierarchy.nodes_of_tier(Tier.AP)]
    # No members anywhere: no AP receives the stream.
    assert all(not ap.path_established for ap in aps)
    assert all(ap.mq.occupancy == 0 for ap in aps)


def test_member_pulls_ap_into_delivery_tree():
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg())
    src = net.add_source(rate_per_sec=30)
    net.start()
    src.start()
    sim.run(until=1_000)
    mh = net.add_mobile_host("mh:x", "ap:0.0.0")
    sim.run(until=3_000)
    ap = net.nes["ap:0.0.0"]
    assert ap.path_established
    assert mh.is_member
    assert mh.delivered_count > 0


def test_deferred_join_base_matches_first_stream_message():
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg())
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=2_000)  # ~40 messages flowed before the member exists
    mh = net.add_mobile_host("mh:late", "ap:1.0.0")
    sim.run(until=5_000)
    seqs = mh.delivered_seqs()
    assert seqs, "deferred join never completed"
    assert seqs[0] > 10  # started near the live stream, not from 0
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_cold_ap_anchors_instead_of_gap_chasing():
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg())
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=2_000)
    net.add_mobile_host("mh:x", "ap:0.0.0")
    sim.run(until=4_000)
    ap = net.nes["ap:0.0.0"]
    # The AP never requested ancient history: its queue starts at the
    # anchored sequence, and no gap requests were issued for 0..anchor.
    assert ap.mq.valid_front > 10
    assert ap.gaps_requested == 0


def test_order_holds_under_dynamic_mode_with_mobility():
    from repro.mobility.cells import CellGrid
    from repro.mobility.handoff import HandoffDriver
    from repro.mobility.models import RandomWalk
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg(), seed=19,
                         aps_per_ag=3)
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=25)
    net.start()
    src.start()
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    for i in range(4):
        net.add_mobile_host(f"mh:{i}", aps[i % len(aps)])
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=600.0))
    for i in range(4):
        driver.track(f"mh:{i}", aps[i % len(aps)])
    sim.run(until=8_000)
    checker.assert_ok()
    assert driver.handoffs_driven > 5


def test_last_member_leaving_demotes_path_to_standby():
    cfg = dyn_cfg(reservation_ttl=400.0, smooth_handoff=False)
    sim, net = small_net(mhs_per_ap=0, cfg=cfg)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    mh = net.add_mobile_host("mh:x", "ap:0.0.0")
    sim.run(until=1_000)
    ag = net.nes["ag:0.0"]
    assert ag.has_child("ap:0.0.0")
    mh.leave()
    sim.run(until=3_000)  # standby reservation expires
    assert not ag.has_child("ap:0.0.0")


# ---------------------------------------------------------------------------
# ROADMAP 1a: the stale home registration
# ---------------------------------------------------------------------------
def test_parked_joiner_that_left_is_not_registered_when_the_path_warms():
    sim, net = small_net(mhs_per_ap=0, cfg=dyn_cfg())
    src = net.add_source(rate_per_sec=20)
    net.start()
    home, away = net.nes["ap:0.0.0"], net.nes["ap:0.0.1"]
    mh = net.add_mobile_host("mh:x", home.id)
    sim.run(until=200)  # no stream yet: the join is parked behind a cold AP
    assert home._pending_joins == ["mh:x"] and not home.path_established
    net.handoff("mh:x", away.id)
    sim.run(until=400)
    assert home._pending_joins == [] and away._pending_joins == ["mh:x"]
    src.start()
    sim.run(until=3_000)  # both paths warm; only the AP it is at registers it
    assert home.path_established and away.path_established
    assert not home.has_child("mh:x") and away.has_child("mh:x")
    assert mh.is_member and mh.delivered_count > 0


#: FINDINGS table 1 as a spec file, through the one resolver.
CAMPUS = spec_path("campus_dynamic_paths.json")


@pytest.mark.parametrize("seed,horizon", [(11, 3_000.0), (12, 3_000.0),
                                          (1, 6_000.0), (11, 6_000.0),
                                          (21, 6_000.0)])
def test_findings_seeds_leave_every_member_registered_at_one_ap(seed,
                                                                horizon):
    """Each of these five runs ended with a roaming member registered at
    two APs — its home AP one of them — before ``_ap_handle_detach``
    dropped parked joiners."""
    spec = registry.resolve(CAMPUS, duration_ms=horizon, seed=seed)
    harvest = Harvest(spec, check=True)
    with observed_scenario(spec, harvest) as scenario:
        scenario.run()
    membership = harvest.suite.get("membership")
    assert membership.violations == []
    net = scenario.net
    # Like the monitor, leave out a handoff still in flight at the end.
    members = {mh_id for mh_id, mh in net.mobile_hosts.items()
               if mh.is_member and membership._settled(mh_id, horizon)}
    assert len(members) > 30
    registered = [child for ne in net.nes.values() if ne.alive
                  for child in ne.wt.children if child in members]
    assert sorted(registered) == sorted(members)
