"""E8 — buffer/scalability comparison: Host-View [1] vs RelM [6] vs RingNet.

Claims from the paper's related-work discussion:

* "the RelM scheme uses fewer buffers in virtually any system
  configuration in comparison with the Host-View scheme" — the buffer
  burden only bites when a member is slow or disconnected, so each cell
  disconnects one MH for 3 seconds: Host-View's per-MSS
  buffer-until-acked semantics accumulate the whole outage at the edge,
  while RelM caps the exposure with its SH catch-up window and RingNet
  with the MQ retention window (both re-deliver on re-registration).
* Host-View's "global updates necessary with every significant move
  make it inefficient" — control messages per move grow with the view.
* RingNet handoffs cost no wired-core control traffic ("no notion of
  handoff in the wired network").

Expected shape: max per-node buffer Host-View ≫ RelM ≈ RingNet (bounded
by their windows); Host-View control cost grows with N, RingNet stays 0.
"""

import pytest

from repro.baselines.hostview import HostViewProtocol
from repro.baselines.relm import RelMProtocol
from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.faults import FaultDriver, FaultPlan, Partition
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier

from _common import emit, run_once

DURATION = 8_000.0
RATE = 20.0
SIZES = [8, 24]
OUTAGE = (2_000.0, 5_000.0)  # one member disconnected in this window
WINDOW = 8  # RelM catch-up window == RingNet retention, for fairness


def disconnect(sim, net, mh_id: str) -> None:
    """Cut ``mh_id`` off the network for the :data:`OUTAGE` window."""
    FaultDriver(sim, net, FaultPlan([Partition(
        at_ms=OUTAGE[0], heal_at_ms=OUTAGE[1],
        groups=[[mh_id], ["@rest"]])])).schedule()


def hostview_cell(n: int) -> dict:
    sim = Simulator(seed=808)
    hv = HostViewProtocol(sim, n_mss=n, rate_per_sec=RATE,
                          update_latency=100.0, mss_max_retries=500)
    for i in range(n):
        hv.add_mobile_host(f"mh:{i}", f"mss:{i}")
    hv.sender.start()
    disconnect(sim, hv, "mh:0")
    # A few significant moves to exercise the global-update cost.
    for k in range(1, 5):
        sim.schedule_at(2_000 + 500 * k, hv.handoff, f"mh:{k}",
                        f"mss:{(k + 1) % n}")
    sim.run(until=DURATION)
    peaks = hv.peak_buffers()
    return {
        "system": "host-view",
        "N": n,
        "max node buffer": max(peaks["sender_peak"], peaks["mss_peak_max"]),
        "handoff control msgs": peaks["control_messages"],
    }


def relm_cell(n: int) -> dict:
    regions = max(2, n // 8)
    per = n // regions
    sim = Simulator(seed=808)
    relm = RelMProtocol(sim, n_regions=regions, msss_per_region=per,
                        rate_per_sec=RATE, catchup_window=WINDOW)
    i = 0
    for r in range(regions):
        for m in range(per):
            relm.add_mobile_host(f"mh:{i}", f"mss:{r}.{m}")
            i += 1
    relm.source.start()
    disconnect(sim, relm, "mh:0")
    # Reconnect = re-register; the SH window serves bounded catch-up.
    sim.schedule_at(OUTAGE[1] + 50, relm.handoff, "mh:0", "mss:0.0")
    for k in range(1, 5):
        sim.schedule_at(2_000 + 500 * k, relm.handoff, f"mh:{k}",
                        f"mss:0.{(k + 1) % per}")
    sim.run(until=DURATION)
    peaks = relm.peak_buffers()
    return {
        "system": "relm",
        "N": regions * per,
        "max node buffer": max(peaks["sh_peak_max"], peaks["mss_peak_max"]),
        "handoff control msgs": 0,  # region-local re-registration only
    }


def ringnet_cell(n: int) -> dict:
    aps_per_ag = max(1, n // 6)
    cfg = ProtocolConfig(mq_retention=WINDOW)
    sim = Simulator(seed=808)
    net = RingNet.build(sim, HierarchyShape(n_br=3, ags_per_br=2,
                                            aps_per_ag=aps_per_ag,
                                            mhs_per_ap=1), cfg=cfg)
    src = net.add_source(corresponding="br:0", rate_per_sec=RATE)
    net.start()
    src.start()
    disconnect(sim, net, "mh:0.0.0.0")
    sim.schedule_at(OUTAGE[1] + 50, net.handoff, "mh:0.0.0.0", "ap:0.0.0")
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    for k in range(1, 5):
        sim.schedule_at(2_000 + 500 * k, net.handoff, "mh:1.0.0.0",
                        aps[(k + 1) % len(aps)])
    sim.run(until=DURATION)
    reports = net.buffer_reports()
    per_node = [r["wq_peak"] + r["mq_peak"] for r in reports]
    return {
        "system": "ringnet",
        "N": 3 * 2 * aps_per_ag,
        "max node buffer": max(per_node),
        "handoff control msgs": 0,  # handoff never signals the wired core
    }


def run_sweep() -> list:
    rows = []
    for n in SIZES:
        rows.append(hostview_cell(n))
        rows.append(relm_cell(n))
        rows.append(ringnet_cell(n))
    return rows


@pytest.mark.benchmark(group="e8")
def test_e8_buffer_hierarchy_hostview_relm_ringnet(benchmark):
    rows = run_once(benchmark, run_sweep)
    emit("E8 two-tier vs three-tier vs RingNet "
         "(3 s member outage; buffer & control cost)",
         rows,
         "paper: RelM fewer buffers than Host-View; RingNet/RelM bound "
         "exposure with windows; RingNet handoffs cost no wired control")
    for n in SIZES:
        hv = next(r for r in rows if r["system"] == "host-view"
                  and r["N"] == n)
        rm = next(r for r in rows if r["system"] == "relm")
        rn = next(r for r in rows if r["system"] == "ringnet")
        # Host-View accumulates the outage at the MSS (~rate × outage);
        # RelM and RingNet stay near their configured windows.
        assert hv["max node buffer"] > 2 * rm["max node buffer"]
        assert hv["max node buffer"] > 2 * rn["max node buffer"]
    # Host-View pays control messages for moves; RingNet none.
    assert all(r["handoff control msgs"] > 0 for r in rows
               if r["system"] == "host-view")
    assert all(r["handoff control msgs"] == 0 for r in rows
               if r["system"] == "ringnet")
    # Host-View's control cost grows with the view size.
    hv_small, hv_large = [r["handoff control msgs"] for r in rows
                          if r["system"] == "host-view"]
    assert hv_large > hv_small
    # RingNet per-node state stays flat with N.
    rn_rows = [r for r in rows if r["system"] == "ringnet"]
    assert rn_rows[-1]["max node buffer"] <= rn_rows[0]["max node buffer"] * 2
