"""X2 — sub-tier rings (paper §3 extension): scaling by nesting.

Paper §3: "when considering more complicated scenarios where sub-tiers
of the AGT and BRT tiers are allowed" — and the self-similarity claim
that "if we consider each logical ring as one node, then the RingNet
hierarchy becomes a tree", making the protocol "potentially simple,
efficient, scalable".

Sweep the nesting depth at constant ring size.  Expected shape: the
member population grows geometrically with depth while the median
latency grows only linearly (a bounded number of extra ring/tree hops
per level) and per-node buffers stay flat — scaling by adding tiers,
which is RingNet's whole point versus one big ring (E6).
"""

import pytest

from repro.core.protocol import RingNet
from repro.metrics.collectors import LatencyCollector
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

DEPTHS = [1, 2, 3, 4]
DURATION = 8_000.0


def run_depth(depth: int) -> dict:
    sim = Simulator(seed=1202)
    # Rings of two at every depth, depth 1 included.
    net = RingNet.build(sim, HierarchyShape(n_br=2, ags_per_br=2,
                                            ring_size=2, depth=depth,
                                            aps_per_ag=1, mhs_per_ap=1))
    checker = OrderChecker(sim.trace)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=15)
    net.start()
    src.start()
    sim.run(until=DURATION)
    checker.assert_ok()
    peak = max(r["wq_peak"] + r["mq_peak"] for r in net.buffer_reports())
    return {
        "depth": depth,
        "members": len(net.member_hosts()),
        "NEs": len(net.nes),
        "p50 (ms)": round(lat.summary()["p50"], 1),
        "p99 (ms)": round(lat.summary()["p99"], 1),
        "max node buffer": peak,
        "order ok": "yes" if checker.ok else "NO",
    }


def run_sweep() -> list:
    return [run_depth(d) for d in DEPTHS]


@pytest.mark.benchmark(group="x2")
def test_x2_depth_scales_latency_linearly(benchmark):
    rows = run_once(benchmark, run_sweep)
    emit("X2 sub-tier rings: population vs latency vs depth", rows,
         "paper: treat each ring as a node and the hierarchy is a tree; "
         "scale by nesting tiers, paying hops linearly")
    assert all(r["order ok"] == "yes" for r in rows)
    p50 = [r["p50 (ms)"] for r in rows]
    members = [r["members"] for r in rows]
    # Population grows geometrically with depth...
    assert members[-1] >= 8 * members[0]
    # ...latency only linearly: bounded increment per added level.
    increments = [b - a for a, b in zip(p50, p50[1:])]
    assert all(inc < 15.0 for inc in increments)
    assert p50[-1] > p50[0]
    # Per-node buffers flat across depths.
    buffers = [r["max node buffer"] for r in rows]
    assert max(buffers) <= min(buffers) + 4
