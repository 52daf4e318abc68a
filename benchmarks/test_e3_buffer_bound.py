"""E3 — Theorem 5.1 buffer bounds.

Claim: WQ can be sized to s·λ·(max(T_order, T_transmit)+τ) and MQ to
s·λ·T_order.

Lossless links (the bound excludes retransmission) and zero MQ
retention (the bound covers the *backlog*, not the handoff catch-up
reserve, which is a separate engineering choice).  The MQ occupancy in
this implementation additionally includes the in-flight delivery window
awaiting child acknowledgements — the paper's model frees a message on
transmission, ours on acknowledgement — so the MQ check uses a
documented slack of +delivery-window messages.

Expected shape: peaks below bounds; both scale with s·λ.
"""

import pytest

from repro.analysis.bounds import bounds_for
from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.metrics.collectors import BufferSampler
from repro.net.link import LinkSpec
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

import math

LOSSLESS_WIRED = LinkSpec(latency=2.0, jitter=0.5, loss_prob=0.0)
LOSSLESS_WIRELESS = LinkSpec(latency=5.0, jitter=2.0, loss_prob=0.0)
DURATION = 10_000.0
CELLS = [(1, 20.0), (2, 20.0), (4, 20.0), (4, 50.0), (4, 100.0)]


def run_cell(s: int, lam: float) -> dict:
    cfg = ProtocolConfig(mq_retention=0)
    sim = Simulator(seed=303)
    spec = HierarchyShape(n_br=4, ags_per_br=2, aps_per_ag=1, mhs_per_ap=1)
    net = RingNet.build(sim, spec, cfg=cfg, wired=LOSSLESS_WIRED,
                        wireless=LOSSLESS_WIRELESS)
    sampler = BufferSampler(sim, net.buffer_reports, period=2.0,
                            warmup=2_000.0)
    top = net.hierarchy.top_ring.members
    sources = [net.add_source(corresponding=top[i], rate_per_sec=lam)
               for i in range(s)]
    sampler.start()
    net.start()
    for i, src in enumerate(sources):
        src.start(delay=i * 2.0)
    sim.run(until=DURATION)
    b = bounds_for(cfg, ring_size=4, n_sources=s, rate_per_sec=lam,
                   wired=LOSSLESS_WIRED, wireless=LOSSLESS_WIRELESS,
                   tree_depth=3, lower_ring_size=2)
    wq_peak = sampler.max_wq()
    mq_peak = sampler.max_mq()
    # Discrete-message slack: a fractional bound still admits the one
    # message currently in process per stream; the MQ additionally holds
    # the in-flight delivery window (ack-freed, not transmit-freed).
    wq_limit = math.ceil(b.wq_bound_corrected_msgs) + s
    mq_limit = math.ceil(b.mq_bound_msgs) + cfg.delivery_window
    return {
        "s": s,
        "lambda": lam,
        "wq bound": round(b.wq_bound_msgs, 1),
        "wq limit": wq_limit,
        "wq peak": wq_peak,
        "mq bound": round(b.mq_bound_msgs, 1),
        "mq limit": mq_limit,
        "mq peak": mq_peak,
        "holds": "yes" if (wq_peak <= wq_limit and mq_peak <= mq_limit)
                  else "NO",
    }


def run_sweep() -> list:
    return [run_cell(s, lam) for s, lam in CELLS]


@pytest.mark.benchmark(group="e3")
def test_e3_buffers_within_bound(benchmark):
    rows = run_once(benchmark, run_sweep)
    emit("E3 Theorem 5.1 buffer bounds: WQ <= s*lam*(max(To,Tt)+tau), "
         "MQ <= s*lam*To (+delivery window)",
         rows,
         "paper: 'all the buffers only need limited sizes'; limits add\n"
         "discrete-message and ack-window slack (documented in "
         "EXPERIMENTS.md)")
    assert all(r["holds"] == "yes" for r in rows)
    # Shape: peaks scale with s*lambda.
    assert rows[-1]["wq peak"] >= rows[0]["wq peak"]
