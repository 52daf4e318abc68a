"""E2 — Theorem 5.1 latency bound.

Claim: "any message will be ordered, forwarded, and delivered within the
message latency bound of Max(T_order, T_transmit) + τ + T_deliver."

The bound is stated *without retransmission*, so links are lossless
here.  We sweep the top-ring size r and the Order-Assignment period τ
and compare the measured maximum end-to-end latency against the analytic
bound.  Expected shape: measured max below the bound everywhere; both
grow with r and τ.
"""

import pytest

from repro.analysis.bounds import bounds_for
from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.metrics.collectors import LatencyCollector
from repro.net.link import LinkSpec
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

LOSSLESS_WIRED = LinkSpec(latency=2.0, jitter=0.5, loss_prob=0.0)
LOSSLESS_WIRELESS = LinkSpec(latency=5.0, jitter=2.0, loss_prob=0.0)
DURATION = 10_000.0
SWEEP = [(2, 5.0), (4, 5.0), (8, 5.0), (4, 20.0)]


def run_cell(r: int, tau: float) -> dict:
    cfg = ProtocolConfig(tau=tau)
    sim = Simulator(seed=202)
    spec = HierarchyShape(n_br=r, ags_per_br=2, aps_per_ag=1, mhs_per_ap=1)
    net = RingNet.build(sim, spec, cfg=cfg, wired=LOSSLESS_WIRED,
                        wireless=LOSSLESS_WIRELESS)
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=DURATION)
    b = bounds_for(cfg, ring_size=r, n_sources=1, rate_per_sec=20,
                   wired=LOSSLESS_WIRED, wireless=LOSSLESS_WIRELESS,
                   tree_depth=3, lower_ring_size=2)
    s = lat.summary()
    return {
        "r": r,
        "tau (ms)": tau,
        "paper bound (ms)": round(b.latency_bound_ms, 1),
        "corrected (ms)": round(b.latency_bound_corrected_ms, 1),
        "measured max (ms)": round(s["max"], 1),
        "measured p50 (ms)": round(s["p50"], 1),
        "paper holds": "yes" if s["max"] <= b.latency_bound_ms else "NO",
        "corrected holds": ("yes" if s["max"] <= b.latency_bound_corrected_ms
                            else "NO"),
    }


def run_sweep() -> list:
    return [run_cell(r, tau) for r, tau in SWEEP]


@pytest.mark.benchmark(group="e2")
def test_e2_latency_within_bound(benchmark):
    rows = run_once(benchmark, run_sweep)
    emit("E2 Theorem 5.1 latency bound: max(T_order,T_transmit)+tau+T_deliver",
         rows,
         "reproduction finding: the paper's bound omits the 2nd token\n"
         "rotation a WTSNP entry needs to reach every ring node, so it\n"
         "can be exceeded at larger r; the corrected bound (+T_order)\n"
         "holds everywhere (see EXPERIMENTS.md).")
    # The corrected bound must hold in every cell.
    assert all(r["corrected holds"] == "yes" for r in rows)
    # The paper's bound holds for small rings (its implicit regime).
    small = [r for r in rows if r["r"] <= 4]
    assert all(r["paper holds"] == "yes" for r in small)
    # Shape: the bound (and measured latency) grows with r.
    b = {r["r"]: r["paper bound (ms)"] for r in rows if r["tau (ms)"] == 5.0}
    assert b[2] < b[4] < b[8]
