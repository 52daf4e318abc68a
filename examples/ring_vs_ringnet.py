#!/usr/bin/env python3
"""Distribution-vehicle shoot-out: one big ring [16] vs the RingNet tree-of-rings.

The paper's §2 criticism of the single logical ring: "since all the
control information has to be rotated along the ring, it may lead to
large latency and require large buffers when the ring becomes large."
RingNet keeps each ring small (locality) and scales by adding tiers.

Both systems here run the *same* ordering/token/reliability stack on the
same simulator; only the topology differs.  Watch latency and buffer
growth as the group size N grows.

Run:  python examples/ring_vs_ringnet.py
"""

import os

from repro.baselines import SingleRingMulticast
from repro.core import ProtocolConfig, RingNet
from repro.metrics import LatencyCollector, format_table
from repro.sim import Simulator
from repro.topology import HierarchyShape

DURATION = float(os.environ.get("REPRO_EXAMPLE_DURATION_MS", 8_000))
RATE = 15.0
CFG = ProtocolConfig(mq_retention=16)  # small retention isolates backlog


def run_single_ring(n_bs: int) -> dict:
    sim = Simulator(seed=9)
    ring = SingleRingMulticast.build_ring(sim, n_bs=n_bs, mhs_per_bs=1,
                                          cfg=CFG)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = ring.add_source(corresponding="bs:0", rate_per_sec=RATE)
    ring.start()
    src.start()
    sim.run(until=DURATION)
    peaks = ring.ring_peak_buffers()
    return {
        "system": "single-ring",
        "N": n_bs,
        "p50_ms": round(lat.summary()["p50"], 1),
        "p99_ms": round(lat.summary()["p99"], 1),
        "peak_buffer": peaks["wq_peak"] + peaks["mq_peak"],
    }


def run_ringnet(n_bs: int) -> dict:
    # Match the edge count: n_bs APs spread under a 3-BR top ring.
    ags_per_br = 2
    aps_per_ag = max(1, n_bs // (3 * ags_per_br))
    sim = Simulator(seed=9)
    net = RingNet.build(sim, HierarchyShape(n_br=3, ags_per_br=ags_per_br,
                                            aps_per_ag=aps_per_ag,
                                            mhs_per_ap=1), cfg=CFG)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=RATE)
    net.start()
    src.start()
    sim.run(until=DURATION)
    reports = net.buffer_reports()
    peak = max(r["wq_peak"] + r["mq_peak"] for r in reports)
    return {
        "system": "ringnet",
        "N": 3 * ags_per_br * aps_per_ag,
        "p50_ms": round(lat.summary()["p50"], 1),
        "p99_ms": round(lat.summary()["p99"], 1),
        "peak_buffer": peak,
    }


rows = []
for n in (6, 12, 24, 48):
    rows.append(run_single_ring(n))
    rows.append(run_ringnet(n))
print(format_table(rows))
print()
print("single-ring latency grows with N (token + data circle the whole")
print("ring); RingNet latency stays near-flat (local rings + tree depth).")
