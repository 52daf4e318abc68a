#!/usr/bin/env python3
"""Failure drill: killing routers mid-stream, watching recovery live.

Sequence of injected faults against a 4-BR hierarchy carrying a 20 msg/s
totally-ordered stream:

* t=3 s — crash whichever Border Router currently holds the
  OrderingToken (Token-Loss: the membership layer signals, the ring
  regenerates from the freshest NewOrderingToken snapshot);
* t=6 s — crash ``ag:1.0``, an Access Gateway ring leader (leader
  re-election; its parent BR re-registers the new leader; APs re-parent
  to candidates);
* t=9 s — partition the top ring and merge it back at t=11 s
  (Multiple-Token resolution keeps exactly one token).

Throughout, the OrderChecker verifies that every mobile host keeps
delivering the identical gap-accounted sequence.

Run:  python examples/failure_drill.py
"""

import os

from repro.core import RingNet
from repro.faults import Crash, FaultDriver, FaultPlan, TOKEN_HOLDER
from repro.metrics import OrderChecker, format_table
from repro.sim import Simulator
from repro.topology import HierarchyShape

# Fault times scale with the (env-overridable) drill length so a short
# smoke run still exercises every injected failure.
DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION_MS", 24_000))
T = DURATION / 24_000.0

sim = Simulator(seed=13)
net = RingNet.build(sim, HierarchyShape(n_br=4, ags_per_br=2,
                                        aps_per_ag=2, mhs_per_ap=1))
order = OrderChecker(sim.trace)
src = net.add_source(corresponding="br:0", rate_per_sec=20)

timeline = []
for kind in ("token.regenerated", "token.destroyed", "fault.crash"):
    sim.trace.subscribe(
        kind, lambda rec, k=kind: timeline.append(
            {"t (ms)": round(rec.time, 1), "event": k,
             "node": rec.get("node", "?")}))


def partition() -> None:
    members = net.hierarchy.top_ring.members
    half = len(members) // 2
    print(f"[{sim.now:8.1f}] splitting top ring "
          f"{members[:half]} | {members[half:]}")
    net.maintenance.split_top_ring(members[:half], members[half:])


def merge() -> None:
    print(f"[{sim.now:8.1f}] merging top ring halves")
    ring_ids = [rid for rid in net.hierarchy.rings
                if rid.startswith("ring:br")]
    net.maintenance.merge_top_rings(*sorted(ring_ids))


# The two crashes are a fault plan, as in the registry's failure_drill:
# ``@token_holder`` resolves to whichever BR holds the token at 3 s, or
# to the last top-ring member while the token is in flight.
crashes = FaultDriver(sim, net, FaultPlan(actions=[
    Crash(at_ms=3_000 * T, target=TOKEN_HOLDER),
    Crash(at_ms=6_000 * T, target="ag:1.0"),
]))

net.start()
src.start()
crashes.schedule()
sim.schedule_at(9_000 * T, partition)
sim.schedule_at(11_000 * T, merge)
sim.run(until=18_000 * T)
src.stop()
sim.run(until=DURATION)

order.assert_ok()
print()
print(format_table(timeline))
print()
counts = sorted(m.delivered_count + m.tombstones
                for m in net.member_hosts())
print(f"sent {src.sent}; per-surviving-MH accounted "
      f"(delivered+tombstoned): {counts[0]}..{counts[-1]}")
print(f"total order verified across {order.deliveries_checked} deliveries, "
      f"{order.violation_count} violations")
regens = sum(ne.tokens_regenerated for ne in net.nes.values())
print(f"token regenerations: {regens}")
