"""End-to-end integration: big topologies, combined fault + mobility load.

These are the "everything at once" runs: multi-source traffic, roaming
members, churn, NE crashes — with the full total-order invariant checked
over every delivery.
"""

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.metrics.collectors import (
    InterruptionCollector,
    LatencyCollector,
    ReliabilityCollector,
    ThroughputCollector,
)
from repro.metrics.order_checker import OrderChecker
from repro.mobility.cells import CellGrid
from repro.mobility.handoff import HandoffDriver
from repro.mobility.models import DirectionalWalk, RandomWalk
from repro.net.link import LinkSpec
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier
from repro.workloads.churn import ChurnDriver
from repro.workloads.generators import uniform_sources


def test_large_topology_multi_source():
    sim = Simulator(seed=31)
    spec = HierarchyShape(n_br=5, ags_per_br=3, aps_per_ag=2, mhs_per_ap=2)
    net = RingNet.build(sim, spec)
    checker = OrderChecker(sim.trace)
    thr = ThroughputCollector(sim.trace)
    fleet = uniform_sources(net, s=4, rate_per_sec=15)
    net.start()
    fleet.start(stagger=7.0)
    sim.run(until=8_000)
    checker.assert_ok()
    # Theorem 5.1 throughput parity: goodput ≈ s·λ in steady state.
    goodput = thr.goodput(2_000, 8_000)
    assert abs(goodput - 60.0) / 60.0 < 0.05
    assert checker.deliveries_checked > 10_000


def test_everything_at_once():
    """Traffic + mobility + churn + a BR crash, order must still hold."""
    sim = Simulator(seed=32)
    spec = HierarchyShape(n_br=4, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)
    net = RingNet.build(sim, spec)
    checker = OrderChecker(sim.trace)
    fleet = uniform_sources(net, s=2, rate_per_sec=15)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=700.0))
    churn = ChurnDriver(net, aps, mean_interval_ms=600.0, min_members=4)
    net.start()
    fleet.start(stagger=3.0)
    for mh_id, mh in net.mobile_hosts.items():
        driver.track(mh_id, mh.ap)
    churn.start()
    sim.schedule_at(4_000, lambda: net.crash_ne("br:3"))
    sim.run(until=12_000)
    churn.stop()
    fleet.stop()
    sim.run(until=18_000)
    checker.assert_ok()
    assert driver.handoffs_driven > 0
    assert churn.joins > 0
    # Long-lived members saw nearly everything.
    long_lived = [m for m in net.member_hosts()
                  if m.guid in net.mobile_hosts and m.guid.startswith("mh:")]
    assert long_lived
    best = max(m.delivered_count + m.tombstones for m in long_lived)
    assert best >= fleet.total_sent - 10


def test_directional_mobility_with_lossy_wireless():
    sim = Simulator(seed=33)
    spec = HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=3, mhs_per_ap=1)
    net = RingNet.build(sim, spec,
                        wireless=LinkSpec(latency=5.0, jitter=2.0,
                                          loss_prob=0.08))
    checker = OrderChecker(sim.trace)
    rel = ReliabilityCollector(sim.trace)
    fleet = uniform_sources(net, s=2, rate_per_sec=10)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid,
                           DirectionalWalk(mean_dwell_ms=900.0,
                                           persistence=0.7))
    net.start()
    fleet.start()
    for mh_id, mh in net.mobile_hosts.items():
        driver.track(mh_id, mh.ap)
    sim.run(until=10_000)
    fleet.stop()
    sim.run(until=16_000)
    checker.assert_ok()
    assert rel.delivery_ratio() > 0.95  # retransmission absorbs most loss


def test_interruption_small_with_smooth_handoff():
    sim = Simulator(seed=34)
    cfg = ProtocolConfig(smooth_handoff=True)
    spec = HierarchyShape(n_br=2, ags_per_br=2, aps_per_ag=3, mhs_per_ap=1)
    net = RingNet.build(sim, spec, cfg=cfg)
    inter = InterruptionCollector(sim.trace)
    fleet = uniform_sources(net, s=1, rate_per_sec=30)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=1_000.0))
    net.start()
    fleet.start()
    for mh_id, mh in net.mobile_hosts.items():
        driver.track(mh_id, mh.ap)
    sim.run(until=10_000)
    s = inter.summary()
    assert inter.interruptions
    # With a 30 msg/s stream (33 ms cadence) the p50 interruption stays
    # within a few inter-message gaps when paths are warm.
    assert s["p50"] < 200.0


def test_deterministic_replay():
    """Same seed ⇒ identical delivery transcript (the repo's bedrock)."""
    def run(seed):
        sim = Simulator(seed=seed)
        net = RingNet.build(sim, HierarchyShape(n_br=3, ags_per_br=2,
                                                aps_per_ag=1, mhs_per_ap=1))
        fleet = uniform_sources(net, s=2, rate_per_sec=20)
        net.start()
        fleet.start()
        sim.run(until=3_000)
        mh = net.mobile_hosts["mh:0.0.0.0"]
        return [(g, p) for g, p, _ in mh.app_log]

    assert run(42) == run(42)
    assert run(42) != run(43)


def test_latency_statistics_reasonable():
    sim = Simulator(seed=35)
    net = RingNet.build(sim, HierarchyShape(ags_per_br=3))
    lat = LatencyCollector(sim.trace, warmup=1_000)
    fleet = uniform_sources(net, s=2, rate_per_sec=20)
    net.start()
    fleet.start()
    sim.run(until=8_000)
    s = lat.summary()
    # End-to-end latency must exceed the physical floor (a few hops) and
    # stay below the Theorem 5.1 style bound for this configuration.
    assert 5.0 < s["p50"] < 100.0
    assert s["max"] < 500.0
