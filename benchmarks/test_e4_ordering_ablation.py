"""E4 — Remark 3 ablation: ordering off ⇒ lower latency, same delivery.

Claim (Remark 3): "If totally-ordered property is not required, then
multicast using the RingNet hierarchy will be more efficient and message
latency will decrease due to the fact that ordering operations are not
required in the top logical ring."

Same hierarchy, same links, same reliability; only the token/WQ/τ
machinery differs.  Expected shape: unordered latency strictly lower at
every percentile; both variants deliver the identical message set.
"""

import pytest

from repro.baselines.unordered import UnorderedRingNet
from repro.core.protocol import RingNet
from repro.metrics.collectors import LatencyCollector
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

SPEC = HierarchyShape(n_br=4, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)
DURATION = 10_000.0
DRAIN = 16_000.0
RATE = 20.0


def run_ordered() -> dict:
    sim = Simulator(seed=404)
    net = RingNet.build(sim, SPEC)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=RATE)
    net.start()
    src.start()
    sim.run(until=DURATION)
    src.stop()
    sim.run(until=DRAIN)
    counts = sorted(m.delivered_count for m in net.member_hosts())
    return {"variant": "ordered", "lat": lat.summary(), "sent": src.sent,
            "min_delivered": counts[0], "max_delivered": counts[-1]}


def run_unordered() -> dict:
    sim = Simulator(seed=404)
    net = UnorderedRingNet.build(sim, SPEC)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=RATE)
    src.start()
    sim.run(until=DURATION)
    src.stop()
    sim.run(until=DRAIN)
    counts = sorted(m.delivered_count for m in net.member_hosts())
    return {"variant": "unordered", "lat": lat.summary(), "sent": src.sent,
            "min_delivered": counts[0], "max_delivered": counts[-1]}


def run_ablation() -> list:
    o, u = run_ordered(), run_unordered()
    rows = []
    for r in (o, u):
        rows.append({
            "variant": r["variant"],
            "p50 (ms)": round(r["lat"]["p50"], 1),
            "p95 (ms)": round(r["lat"]["p95"], 1),
            "max (ms)": round(r["lat"]["max"], 1),
            "sent": r["sent"],
            "delivered/MH": f'{r["min_delivered"]}..{r["max_delivered"]}',
        })
    rows.append({
        "variant": "ordering overhead",
        "p50 (ms)": round(o["lat"]["p50"] - u["lat"]["p50"], 1),
        "p95 (ms)": round(o["lat"]["p95"] - u["lat"]["p95"], 1),
        "max (ms)": round(o["lat"]["max"] - u["lat"]["max"], 1),
        "sent": "-", "delivered/MH": "-",
    })
    return rows, o, u


@pytest.mark.benchmark(group="e4")
def test_e4_unordered_is_faster_same_delivery(benchmark):
    rows, o, u = run_once(benchmark, run_ablation)
    emit("E4 Remark 3: ordered vs unordered RingNet", rows,
         "paper: latency decreases without ordering; throughput identical")
    assert u["lat"]["p50"] < o["lat"]["p50"]
    assert u["lat"]["p95"] < o["lat"]["p95"]
    # Both deliver the complete stream to every member.
    assert o["min_delivered"] == o["sent"]
    assert u["min_delivered"] == u["sent"]
