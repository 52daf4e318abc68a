#!/usr/bin/env python3
"""Handoff storm: smooth handoff (MMA path reservation) on vs off.

Reproduces the paper's §3 claim in a stress setting: "in most cases,
when an MH handoffs, it can immediately receive multicast messages
because either some other members have already been there, or some
reserved path has already been set up in advance."

A single MH sprints across a row of cells (directional walk, short
dwell) while a 25 msg/s stream flows.  With smooth handoff the next AP
is pre-warmed by a NeighborNotify-triggered reservation; without it the
AP must build its multicast path after the MH arrives.

Run:  python examples/handoff_storm.py
"""

import os

from repro.core import ProtocolConfig, RingNet
from repro.metrics import InterruptionCollector, OrderChecker, format_table
from repro.mobility import CellGrid, DirectionalWalk, HandoffDriver
from repro.sim import Simulator
from repro.topology import HierarchyShape
from repro.topology.tiers import Tier

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION_MS", 20_000))


def storm(smooth: bool, seed: int = 5) -> dict:
    sim = Simulator(seed=seed)
    # Dynamic group mode: APs only receive the stream once a member or a
    # reservation pulls them in — the regime where pre-warming matters.
    cfg = ProtocolConfig(smooth_handoff=smooth, reservation_ttl=5_000.0,
                         static_ap_paths=False)
    # One AG ring with many APs: a corridor of cells.
    net = RingNet.build(sim, HierarchyShape(n_br=2, ags_per_br=1,
                                            aps_per_ag=6, mhs_per_ap=0),
                        cfg=cfg)
    order = OrderChecker(sim.trace)
    inter = InterruptionCollector(sim.trace)
    # A fast stream (10 ms cadence) so cold-path delays are visible above
    # the inter-message gap.
    src = net.add_source(corresponding="br:0", rate_per_sec=100)

    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid(len(aps), 1, aps)  # a 1-row corridor
    sprinter = net.add_mobile_host("mh:sprinter", aps[0])
    driver = HandoffDriver(net, grid,
                           DirectionalWalk(mean_dwell_ms=600.0,
                                           persistence=0.95))
    net.start()
    src.start()
    driver.track("mh:sprinter", aps[0])
    sim.run(until=DURATION)
    order.assert_ok()

    s = inter.summary()
    mh = net.mobile_hosts["mh:sprinter"]
    return {
        "smooth_handoff": "on" if smooth else "off",
        "handoffs": mh.handoffs,
        "interrupt_p50_ms": round(s["p50"], 1),
        "interrupt_p95_ms": round(s["p95"], 1),
        "interrupt_max_ms": round(s["max"], 1),
        "tombstoned": mh.tombstones,
        "delivered": mh.delivered_count,
    }


rows = [storm(smooth=True), storm(smooth=False)]
print(format_table(rows))
print()
on, off = rows[0], rows[1]
print(f"reservation advantage is in the tail: worst-case interruption "
      f"{off['interrupt_max_ms']}ms (cold path build) -> "
      f"{on['interrupt_max_ms']}ms with pre-reserved paths — the paper's "
      f"'in most cases ... immediately receive'.")
