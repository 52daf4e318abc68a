"""E9 — Token-Loss regeneration and Multiple-Token resolution (§4.2.1).

Claims:

* Token-Loss: on the membership protocol's signal, the ring regenerates
  exactly one token from the freshest surviving ``NewOrderingToken``
  snapshot and ordering resumes — no global sequence is assigned twice.
* Multiple-Token: when top rings merge, "the multicast protocol will
  keep only one OrderingToken alive according to some rule".

Scenario A kills the current token holder mid-run; scenario B splits the
top ring (the token keeps running in one half) and merges it back.
Expected shape: exactly one regeneration (A), at most one live token
after merge (B), zero total-order violations throughout, and an ordering
outage bounded by the membership detection + regeneration machinery.
"""

import pytest

from repro.core.protocol import RingNet
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

SPEC = HierarchyShape(n_br=4, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)


def crash_holder_run() -> dict:
    sim = Simulator(seed=909)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    net.start()
    src.start()
    outage = {"last_deliver": 0.0, "max_gap_after_crash": 0.0,
              "crash_at": 3_000.0}

    def watch(rec):
        gap = rec.time - outage["last_deliver"]
        if rec.time > outage["crash_at"]:
            outage["max_gap_after_crash"] = max(
                outage["max_gap_after_crash"], gap)
        outage["last_deliver"] = rec.time

    sim.trace.subscribe("mh.deliver", watch)

    def crash_holder():
        holder = next((ne for ne in net.top_ring_nes()
                       if ne.held_token is not None), None)
        net.crash_ne(holder.id if holder else "br:2")

    sim.schedule_at(outage["crash_at"], crash_holder)
    sim.run(until=15_000)
    src.stop()
    sim.run(until=20_000)
    checker.assert_ok()
    regens = sum(ne.tokens_regenerated for ne in net.nes.values())
    best = max(m.delivered_count for m in net.member_hosts())
    return {
        "scenario": "crash token holder",
        "regenerations": regens,
        "live tokens": sum(1 for ne in net.top_ring_nes()
                           if ne.held_token is not None),
        "ordering outage (ms)": round(outage["max_gap_after_crash"], 1),
        "delivered/best MH": f"{best}/{src.sent}",
        "order violations": checker.violation_count,
    }


def split_merge_run() -> dict:
    sim = Simulator(seed=910)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=15)
    net.start()
    src.start()
    sim.run(until=2_000)
    net.maintenance.split_top_ring(["br:0", "br:1"], ["br:2", "br:3"])
    sim.run(until=5_000)
    net.maintenance.merge_top_rings("ring:br.a", "ring:br.b")
    sim.run(until=15_000)
    src.stop()
    sim.run(until=20_000)
    checker.assert_ok()
    best = max(m.delivered_count for m in net.member_hosts())
    return {
        "scenario": "split + merge top ring",
        "regenerations": sum(ne.tokens_regenerated
                             for ne in net.nes.values()),
        "live tokens": sum(1 for ne in net.top_ring_nes()
                           if ne.held_token is not None),
        "ordering outage (ms)": float("nan"),
        "delivered/best MH": f"{best}/{src.sent}",
        "order violations": checker.violation_count,
    }


@pytest.mark.benchmark(group="e9")
def test_e9_token_recovery(benchmark):
    def run():
        return [crash_holder_run(), split_merge_run()]

    rows = run_once(benchmark, run)
    emit("E9 Token-Loss regeneration + Multiple-Token resolution", rows,
         "paper: regenerate from the freshest NewOrderingToken; keep "
         "exactly one token alive after a merge")
    crash, merge = rows
    assert crash["regenerations"] == 1
    assert crash["order violations"] == 0
    assert merge["order violations"] == 0
    assert merge["live tokens"] <= 1
    # Ordering resumed: nearly the whole stream reached the members.
    for r in rows:
        got, sent = r["delivered/best MH"].split("/")
        assert int(got) >= int(sent) - 10
