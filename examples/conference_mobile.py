#!/usr/bin/env python3
"""A mobile video-conference: roaming audience, steady senders.

The paper's §1 motivating workload: conferencing / distance learning
where every participant must see the same ordered stream while walking
around a campus.  The scenario comes from the experiments registry
(``campus``), tweaked declaratively: mobile hosts random-walk across the
AP cell grid and hand off on every cell crossing; the protocol keeps
delivery totally ordered and (nearly) uninterrupted via MMA path
reservations.

Run:  python examples/conference_mobile.py
"""

import os

from repro.experiments import build_scenario, registry
from repro.metrics import (
    InterruptionCollector,
    LatencyCollector,
    OrderChecker,
    ThroughputCollector,
    format_table,
)

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION_MS", 15_000))
WARMUP = DURATION / 7.5  # 2 s of the default 15 s run

spec = registry.get(
    "campus",
    duration_ms=DURATION,
    warmup_ms=0.0,
    seed=11,
    **{
        "workload.rate_per_sec": 15.0,
        "mobility.mean_dwell_ms": 1_500.0,  # a handoff every ~1.5 s per MH
    },
)
scenario = build_scenario(spec)

order = OrderChecker(scenario.sim.trace)
latency = LatencyCollector(scenario.sim.trace, warmup=WARMUP)
throughput = ThroughputCollector(scenario.sim.trace)
interruptions = InterruptionCollector(scenario.sim.trace)

scenario.run()
order.assert_ok()

agg_rate = scenario.fleet.aggregate_rate_per_sec
rows = [
    {"metric": "aggregate source rate", "value": f"{agg_rate:.0f} msg/s"},
    {"metric": "per-MH goodput",
     "value": f"{throughput.goodput(WARMUP, DURATION):.1f} msg/s"},
    {"metric": "handoffs driven",
     "value": str(scenario.mobility.handoffs_driven)},
    {"metric": "p50 delivery latency",
     "value": f"{latency.summary()['p50']:.1f} ms"},
    {"metric": "p99 delivery latency",
     "value": f"{latency.summary()['p99']:.1f} ms"},
    {"metric": "p50 post-handoff interruption",
     "value": f"{interruptions.summary()['p50']:.1f} ms"},
    {"metric": "p95 post-handoff interruption",
     "value": f"{interruptions.summary()['p95']:.1f} ms"},
    {"metric": "total order", "value": "verified"},
]
print(format_table(rows))
print()
counts = scenario.sim.trace.counts
print(f"membership: {len(scenario.net.member_hosts())} members, "
      f"{counts.get('mh.join', 0)} joins, {counts.get('mh.leave', 0)} leaves, "
      f"{counts.get('mh.handoff', 0)} handoffs")
