"""Sim-vs-live differential harness (``python -m repro live-diff``).

Run the same spec — same seed-derived workload — once on the
discrete-event engine and once on the live asyncio backend, then
compare:

* **per-group delivery order**: messages are identified by
  ``(source, local_seq)``; for every MH the harness takes the messages
  delivered in *both* runs and measures order agreement as
  ``1 − inversions / pairs`` (Kendall-style).  Concurrent messages may
  legitimately order differently across backends — total order is a
  *within*-run guarantee — so agreement is a band, not an equality.
* **delivered-set overlap** per MH (horizon-edge effects trim a few
  tail messages on either side).
* **metric envelopes**: latency mean/p50/p95, goodput, and sent rate
  within relative tolerance plus an absolute floor.
* **conformance**: zero order violations in both runs, zero monitor
  violations in the live run.

The result is a machine-readable report whose shape is pinned by the
committed schema fixture ``tests/data/live_diff_report.schema.json``;
its ``sim`` and ``live`` blocks are the two runs' whole run entries,
the live one with its ``live`` section
(``tests/data/run_entry.schema.json``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.runner import Harvest, observed_scenario
from repro.experiments.spec import ExperimentSpec
from repro.live.builder import NetworkBuilder
from repro.obs.critpath import critpath_summary, stage_delta, stage_means
from repro.obs.spans import SpanCollector, assemble
from repro.sim.trace import TraceBus, TraceRecord

#: Default tolerance bands.
DEFAULT_TOLERANCES = {
    "latency_rel": 0.35,       # relative band on latency stats
    "latency_abs_ms": 20.0,    # absolute floor (live adds loop lag)
    "rate_rel": 0.25,          # goodput / sent-rate band
    "order_agreement_min": 0.95,
    "overlap_min": 0.85,
}


class DeliveryLog:
    """Per-MH delivery sequences keyed by message identity.

    An observer of ``mh.deliver``: records, per MH, the ordered list
    of ``(source, local_seq)`` identities — the cross-backend-stable
    message names (gseq numbering is an artifact of each run's token
    arrival order).
    """

    def __init__(self) -> None:
        self.by_mh: Dict[str, List[Tuple[str, int]]] = {}
        self._trace: Optional[TraceBus] = None

    def attach(self, trace: TraceBus) -> "DeliveryLog":
        self._trace = trace
        trace.subscribe("mh.deliver", self._on_deliver)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe("mh.deliver", self._on_deliver)
            self._trace = None

    def _on_deliver(self, rec: TraceRecord) -> None:
        key = (rec["source"], rec["local_seq"])
        self.by_mh.setdefault(rec["mh"], []).append(key)


def _count_inversions(order: List[int]) -> int:
    """Number of out-of-order pairs, by merge sort (O(n log n))."""
    n = len(order)
    if n < 2:
        return 0
    work = list(order)
    buf = [0] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if work[i] <= work[j]:
                    buf[k] = work[i]
                    i += 1
                else:
                    buf[k] = work[j]
                    j += 1
                    inversions += mid - i
                k += 1
            buf[k:hi] = work[i:mid] if i < mid else work[j:hi]
            work[lo:hi] = buf[lo:hi]
        width *= 2
    return inversions


def order_agreement(sim_seq: List[Tuple[str, int]],
                    live_seq: List[Tuple[str, int]]) -> Tuple[float, int, int]:
    """Agreement between two delivery sequences on their common set.

    Returns ``(agreement, common, inversions)`` where agreement is
    ``1 − inversions/pairs`` over the messages present in both
    sequences (1.0 when fewer than two are common).
    """
    live_index = {key: i for i, key in enumerate(live_seq)}
    common = [live_index[key] for key in sim_seq if key in live_index]
    m = len(common)
    pairs = m * (m - 1) // 2
    if pairs == 0:
        return 1.0, m, 0
    inversions = _count_inversions(common)
    return 1.0 - inversions / pairs, m, inversions


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _envelope(metric: str, sim_value: float, live_value: float,
              rel: float, abs_floor: float = 0.0) -> Dict[str, Any]:
    diff = abs(live_value - sim_value)
    limit = max(abs(sim_value) * rel, abs_floor)
    return {
        "metric": metric,
        "sim": round(float(sim_value), 6),
        "live": round(float(live_value), 6),
        "abs_diff": round(float(diff), 6),
        "limit": round(float(limit), 6),
        "ok": bool(diff <= limit),
    }


def diff_spec(spec: ExperimentSpec, fabric: str = "queue",
              time_scale: float = 1.0,
              tolerances: Optional[Dict[str, float]] = None) -> Dict[str, Any]:
    """Run ``spec`` in sim and live and compare; returns the report."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)

    # The same three observers on both backends, through the same seam
    # (the live builder opens it; LiveRun.run closes it).
    sim_harvest, sim_log, sim_spans = (Harvest(spec), DeliveryLog(),
                                       SpanCollector())
    with observed_scenario(spec, sim_harvest, sim_log,
                           sim_spans) as scenario:
        scenario.run()
    sim = sim_harvest.result.to_dict(include_timing=False)
    live_log, live_spans = DeliveryLog(), SpanCollector()
    run = NetworkBuilder(spec, fabric=fabric, time_scale=time_scale,
                         monitors=True).build(live_log, live_spans)
    run.run()
    live = run.result.to_dict(include_timing=False)

    # Per-group (per-MH) order agreement on the common delivered set.
    groups = []
    for mh in sorted(set(sim_log.by_mh) | set(live_log.by_mh)):
        s = sim_log.by_mh.get(mh, [])
        l = live_log.by_mh.get(mh, [])
        agreement, common, inversions = order_agreement(s, l)
        overlap = common / max(len(s), len(l)) if (s or l) else 1.0
        groups.append({
            "mh": mh,
            "sim_delivered": len(s),
            "live_delivered": len(l),
            "common": common,
            "inversions": inversions,
            "agreement": round(agreement, 6),
            "overlap": round(overlap, 6),
            "ok": bool(agreement >= tol["order_agreement_min"]
                       and overlap >= tol["overlap_min"]),
        })

    envelopes = [
        _envelope("latency.mean", sim["latency"].get("mean", 0.0),
                  live["latency"].get("mean", 0.0),
                  tol["latency_rel"], tol["latency_abs_ms"]),
        _envelope("latency.p50", sim["latency"].get("p50", 0.0),
                  live["latency"].get("p50", 0.0),
                  tol["latency_rel"], tol["latency_abs_ms"]),
        _envelope("latency.p95", sim["latency"].get("p95", 0.0),
                  live["latency"].get("p95", 0.0),
                  tol["latency_rel"], tol["latency_abs_ms"]),
        _envelope("goodput", sim["goodput"], live["goodput"],
                  tol["rate_rel"]),
        _envelope("sent_rate", sim["sent_rate"], live["sent_rate"],
                  tol["rate_rel"]),
    ]

    # Per-stage latency attribution on both backends (informational —
    # the verdict comes from envelopes/groups, but when an envelope
    # fails this names the stage the divergence lives in).
    sim_stages, live_stages = (
        stage_means(critpath_summary(assemble(spans.events)))
        for spans in (sim_spans, live_spans))
    span_stages = {
        "sim": sim_stages,
        "live": live_stages,
        "delta": stage_delta(live_stages, sim_stages),
    }

    conformance = {
        "sim_order_violations": sim["order_violations"],
        "live_order_violations": live["order_violations"],
        "live_monitor_violations": run.violations(),
    }
    ok = (all(g["ok"] for g in groups)
          and all(e["ok"] for e in envelopes)
          and conformance["sim_order_violations"] == 0
          and conformance["live_order_violations"] == 0
          and not conformance["live_monitor_violations"])

    return {
        "kind": "live_diff_report",
        "name": spec.name,
        "seed": spec.seed,
        "duration_ms": spec.duration_ms,
        "fabric": fabric,
        "time_scale": time_scale,
        "tolerances": tol,
        "sim": sim,
        "live": live,
        "groups": groups,
        "envelopes": envelopes,
        "span_stages": span_stages,
        "conformance": conformance,
        "ok": bool(ok),
    }

