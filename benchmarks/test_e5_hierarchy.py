"""E5 — Figure 1: hierarchy construction, self-organization, and churn.

The paper's only figure is the RingNet hierarchy itself.  This
experiment (a) builds spec-driven hierarchies at three scales and
validates every structural invariant (top ring, leader-parent wiring,
candidate tables), and (b) runs membership churn (joins/leaves) with
traffic to show the hierarchy keeps delivering a consistent total order
while members come and go — with the batched-update saving reported.
"""

import pytest

from repro.core.protocol import RingNet
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape, build_hierarchy
from repro.topology.tiers import Tier
from repro.workloads.churn import ChurnDriver

from _common import emit, run_once

SCALES = [
    HierarchyShape(n_br=2, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1),
    HierarchyShape(n_br=3, ags_per_br=3, aps_per_ag=2, mhs_per_ap=2),
    HierarchyShape(n_br=5, ags_per_br=3, aps_per_ag=3, mhs_per_ap=2),
]


def structure_rows() -> list:
    rows = []
    for spec in SCALES:
        h = build_hierarchy(spec)
        h.validate()
        rows.append({
            "BRs": spec.n_br,
            "AGs": spec.n_ag,
            "APs": spec.n_ap,
            "MHs": spec.n_mh,
            "rings": len(h.rings),
            "top ring": h.top_ring.size,
            "valid": "yes",
        })
    return rows


def churn_run() -> dict:
    sim = Simulator(seed=505)
    net = RingNet.build(sim, SCALES[1])
    checker = OrderChecker(sim.trace)
    # Membership events as the APs capture them; a batched update scheme
    # sends one update per window, a window opening at the first event
    # more than 100 ms after the current window's first.
    events = []
    for kind in ("mh.join", "mh.leave", "mh.handoff"):
        sim.trace.subscribe(kind, lambda rec: events.append(rec.time))
    src = net.add_source(corresponding="br:0", rate_per_sec=15)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    churn = ChurnDriver(net, aps, mean_interval_ms=250.0, min_members=4)
    net.start()
    src.start()
    churn.start()
    sim.run(until=12_000)
    churn.stop()
    src.stop()
    sim.run(until=16_000)
    checker.assert_ok()
    batches, window_start = 0, None
    for t in events:
        if window_start is None or t - window_start > 100.0:
            batches, window_start = batches + 1, t
    return {
        "joins": churn.joins,
        "leaves": churn.leaves,
        "final members": len(net.member_hosts()),
        "deliveries checked": checker.deliveries_checked,
        "order violations": checker.violation_count,
        "events": len(events),
        "batched updates": batches,
    }


@pytest.mark.benchmark(group="e5")
def test_e5_hierarchy_and_churn(benchmark):
    def run():
        return structure_rows(), churn_run()

    s_rows, churn = run_once(benchmark, run)
    emit("E5 Figure 1: hierarchy structure at three scales", s_rows)
    emit("E5 churn: totally-ordered delivery under joins/leaves",
         [churn],
         "paper: membership propagates to the top leader; batching cuts "
         "update traffic")
    assert all(r["valid"] == "yes" for r in s_rows)
    assert churn["order violations"] == 0
    assert churn["joins"] > 10
    assert churn["batched updates"] < churn["events"]
