"""E7 — smooth handoff: MMA path reservation on vs off.

Claim (§3): "In most cases, when an MH handoffs, it can immediately
receive multicast messages because either some other members have
already been there, or some reserved path has already been set up in
advance."

Dynamic-path mode (APs join the delivery tree on demand); a directional
walker crosses a corridor of cells at three handoff rates.  Expected
shape: with reservations the post-handoff interruption stays at the
inter-message gap even in the worst case; without them, cold-path
builds blow up the tail (max) interruption.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.metrics.collectors import InterruptionCollector
from repro.metrics.order_checker import OrderChecker
from repro.mobility.cells import CellGrid
from repro.mobility.handoff import HandoffDriver
from repro.mobility.models import DirectionalWalk
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier
from repro.validation.monitors import MembershipMonitor

from _common import emit, run_once

DURATION = 20_000.0
RATE = 100.0  # 10 ms cadence makes path-build delays visible
DWELLS = [400.0, 800.0]


def run_cell(smooth: bool, dwell: float, seed: int = 707) -> dict:
    sim = Simulator(seed=seed)
    # Short reservation TTL + a long corridor: without reservations the
    # walker keeps arriving at APs whose paths have gone cold again.
    cfg = ProtocolConfig(smooth_handoff=smooth, reservation_ttl=1_500.0,
                         static_ap_paths=False)
    net = RingNet.build(sim, HierarchyShape(n_br=2, ags_per_br=1,
                                            aps_per_ag=12, mhs_per_ap=0),
                        cfg=cfg)
    checker = OrderChecker(sim.trace)
    membership = MembershipMonitor(sim.trace)
    inter = InterruptionCollector(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=RATE)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid(len(aps), 1, aps)
    net.add_mobile_host("mh:walker", aps[0])
    driver = HandoffDriver(net, grid,
                           DirectionalWalk(mean_dwell_ms=dwell,
                                           persistence=0.95))
    net.start()
    src.start()
    driver.track("mh:walker", aps[0])
    sim.run(until=DURATION)
    checker.assert_ok()
    # Smooth handoff must also leave the walker registered where it is,
    # and only there (ROADMAP 1a: a stale home registration would pass
    # the order check).
    membership.finish(net=net, end_time=sim.now)
    assert membership.violations == []
    mh = net.mobile_hosts["mh:walker"]
    s = inter.summary()
    return {
        "reservation": "on" if smooth else "off",
        "dwell (ms)": dwell,
        "handoffs": mh.handoffs,
        "interrupt p50 (ms)": round(s["p50"], 1),
        "interrupt max (ms)": round(s["max"], 1),
        "tombstoned": mh.tombstones,
    }


def run_sweep() -> list:
    rows = []
    for dwell in DWELLS:
        rows.append(run_cell(True, dwell))
        rows.append(run_cell(False, dwell))
    return rows


@pytest.mark.benchmark(group="e7")
def test_e7_reservation_shrinks_interruption_tail(benchmark):
    rows = run_once(benchmark, run_sweep)
    emit("E7 smooth handoff: MMA path reservation on/off", rows,
         "paper: with reservations an MH 'immediately' receives after "
         "handoff; cold paths pay the build latency in the tail")
    for dwell in DWELLS:
        on = next(r for r in rows if r["reservation"] == "on"
                  and r["dwell (ms)"] == dwell)
        off = next(r for r in rows if r["reservation"] == "off"
                   and r["dwell (ms)"] == dwell)
        assert on["interrupt max (ms)"] < off["interrupt max (ms)"]
        # With warm paths even the worst case is a few message gaps.
        assert on["interrupt max (ms)"] < 60.0
