"""A1 — parameter ablations for the design choices DESIGN.md calls out.

Not from the paper's evaluation; these quantify the sensitivity of the
implementation's three main knobs:

* **τ (Order-Assignment period)** — CPU/latency trade: each message
  waits on average τ/2 for the periodic scan after its token entry
  lands, so median latency should rise ~linearly with τ at constant
  throughput.
* **delivery window** — per-child memory/goodput trade: a window of 1
  (stop-and-wait per child) throttles delivery below the source rate;
  windows ≥ 8 reach wire speed at these rates.
* **MQ retention** — AP memory vs handoff catch-up: retention 0 means a
  handed-off MH can never catch up from the new AP's buffer and must
  tombstone; generous retention makes handoffs lossless.
"""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.metrics.collectors import LatencyCollector, ThroughputCollector
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape

from _common import emit, run_once

SPEC = HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)
DURATION = 8_000.0


def tau_cell(tau: float) -> dict:
    sim = Simulator(seed=111)
    net = RingNet.build(sim, SPEC, cfg=ProtocolConfig(tau=tau))
    lat = LatencyCollector(sim.trace, warmup=2_000.0)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=DURATION)
    return {"knob": "tau", "value": tau,
            "p50 latency (ms)": round(lat.summary()["p50"], 1),
            "detail": ""}


def window_cell(window: int) -> dict:
    # 200 msg/s (5 ms cadence) < the ~12 ms per-child ack RTT, so
    # stop-and-wait (window 1) cannot keep up.
    sim = Simulator(seed=112)
    net = RingNet.build(sim, SPEC,
                        cfg=ProtocolConfig(delivery_window=window))
    thr = ThroughputCollector(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=200)
    net.start()
    src.start()
    sim.run(until=DURATION)
    goodput = thr.goodput(2_000.0, DURATION)
    return {"knob": "delivery_window", "value": window,
            "p50 latency (ms)": float("nan"),
            "detail": f"goodput {goodput:.1f}/200 msg/s"}


def retention_cell(retention: int) -> dict:
    sim = Simulator(seed=113)
    net = RingNet.build(sim, SPEC,
                        cfg=ProtocolConfig(mq_retention=retention,
                                           smooth_handoff=False))
    checker = OrderChecker(sim.trace)
    # Fast stream so messages land inside each handoff's detach→register
    # window; with no retention the new AP has already pruned them.
    src = net.add_source(corresponding="br:0", rate_per_sec=200)
    net.start()
    src.start()
    for k in range(6):
        sim.schedule_at(2_000 + 700 * k, net.handoff, "mh:0.0.0.0",
                        ["ap:1.0.0", "ap:0.0.0"][k % 2])
    sim.run(until=DURATION)
    checker.assert_ok()
    mh = net.mobile_hosts["mh:0.0.0.0"]
    return {"knob": "mq_retention", "value": retention,
            "p50 latency (ms)": float("nan"),
            "detail": f"tombstones {mh.tombstones}, "
                      f"delivered {mh.delivered_count}"}


def run_all() -> list:
    rows = [tau_cell(t) for t in (1.0, 5.0, 20.0, 40.0)]
    rows += [window_cell(w) for w in (1, 4, 16)]
    rows += [retention_cell(r) for r in (0, 8, 256)]
    return rows


@pytest.mark.benchmark(group="a1")
def test_a1_parameter_ablations(benchmark):
    rows = run_once(benchmark, run_all)
    emit("A1 design-choice ablations (tau / delivery window / retention)",
         rows)
    taus = {r["value"]: r["p50 latency (ms)"] for r in rows
            if r["knob"] == "tau"}
    # Latency rises with tau, roughly +tau/2 at the median.
    assert taus[1.0] < taus[20.0] < taus[40.0]
    assert taus[40.0] - taus[1.0] > 10.0
    # Window 1 starves goodput; window >= 16 keeps up at 200 msg/s.
    win = {r["value"]: r["detail"] for r in rows
           if r["knob"] == "delivery_window"}
    w1 = float(win[1].split()[1].split("/")[0])
    w16 = float(win[16].split()[1].split("/")[0])
    assert w1 < 0.9 * 200.0
    assert w16 > 0.95 * 200.0
    # Zero retention forces tombstones on handoff; generous retention
    # keeps handoffs lossless.
    ret = {r["value"]: r["detail"] for r in rows
           if r["knob"] == "mq_retention"}
    t0 = int(ret[0].split()[1].rstrip(","))
    t256 = int(ret[256].split()[1].rstrip(","))
    assert t0 > 0
    assert t256 == 0