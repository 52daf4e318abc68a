"""Critical-path latency attribution over assembled message spans.

Answers the question the aggregate collectors cannot: *where* did each
delivered message's end-to-end latency go?  Every delivery's latency is
partitioned into causally ordered stages:

``uplink``
    Application send → SourceData arrival at the ordering NE
    (``source.send`` → ``wq.insert``), including uplink
    retransmissions.
``order_wait``
    Waiting-queue insert → global-sequence assignment when the token
    reaches the ordering NE (``wq.insert`` → ``ordered`` at the
    ordering node).
``ring`` / ``downlink``
    Assignment → first transmission of the final hop into the MH, and
    that hop's flight time (requires transport hop events from a live
    :class:`~repro.obs.spans.SpanCollector`).
``mh_reorder``
    Physical arrival at the MH → in-order delivery out of the MQ.
``fanout``
    The coarse merged stage used when hop detail is missing — e.g.
    spans assembled offline from a recorded golden trace
    (:func:`~repro.obs.spans.events_from_trace`) or messages delivered
    via gap-repair paths that bypass the normal hop chain.

One overlay rides along without being part of the partition:
``retransmit`` (per-hop extra send-window time).

The summary groups percentile breakdowns per multicast group (``gid``
when the spans carry one, else per source stream) and names the
dominant stage per percentile band — the artifact the ROADMAP's
compiled-kernel item wants for target picking.
:func:`chrome_trace` exports spans as Chrome-trace / Perfetto JSON.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.metrics.report import percentile
from repro.obs.spans import Delivery, MessageSpan, SpanSet

#: Schema tag for critpath summary payloads.
CRITPATH_SCHEMA = "repro.critpath/v1"

#: Causal order of the partition stages (for rendering and export).
STAGE_ORDER = ("uplink", "order_wait", "ring", "downlink", "fanout",
               "mh_reorder")

#: Percentile bands the dominant-stage extraction reports over.
DEFAULT_BANDS: Tuple[Tuple[float, float], ...] = (
    (0, 50), (50, 90), (90, 99), (99, 100))

#: Most groups a summary enumerates (stable: largest first).
MAX_GROUPS = 16


# ----------------------------------------------------------------------
# Per-delivery stage math
# ----------------------------------------------------------------------
def delivery_stages(span: MessageSpan, d: Delivery,
                    ) -> Optional[Tuple[float, Dict[str, float]]]:
    """``(total_ms, {stage: ms})`` for one delivery, or None if unrooted.

    The stages partition ``total`` exactly: a cursor walks the causal
    waypoints and every gap lands in exactly one stage.  Waypoints that
    are missing or out of causal order (possible on gap-repair
    re-deliveries) collapse the remainder into ``fanout``.
    """
    t0 = span.send_t
    if t0 is None:
        return None
    total = d.t - t0
    stages: Dict[str, float] = {}
    cursor = t0
    if span.wq_t is not None and span.wq_t >= cursor:
        stages["uplink"] = span.wq_t - cursor
        cursor = span.wq_t
        ordered = span.ordered_t if span.ordered_t is not None \
            else span.ordered_first
        if ordered is not None and ordered >= cursor:
            stages["order_wait"] = ordered - cursor
            cursor = ordered
    if d.arrive_t is not None and d.arrive_t >= cursor:
        hop = span.hop_into(d.mh)
        if (hop is not None and "order_wait" in stages
                and hop.first_send is not None
                and cursor <= hop.first_send <= d.arrive_t):
            stages["ring"] = hop.first_send - cursor
            stages["downlink"] = d.arrive_t - hop.first_send
        else:
            stages["fanout"] = d.arrive_t - cursor
        cursor = d.arrive_t
        stages["mh_reorder"] = max(0.0, d.t - cursor)
    else:
        stages["fanout"] = stages.get("fanout", 0.0) + max(0.0, d.t - cursor)
    return total, stages


def iter_deliveries(spanset: SpanSet,
                    ) -> Iterable[Tuple[MessageSpan, Delivery, float,
                                        Dict[str, float]]]:
    """Every rooted delivery with its stage partition."""
    for span in spanset.spans.values():
        for d in span.deliveries:
            staged = delivery_stages(span, d)
            if staged is not None:
                yield span, d, staged[0], staged[1]


def _group_of(span: MessageSpan) -> str:
    return span.gid if span.gid is not None else f"src:{span.source}"


def _stats(values: List[float]) -> Dict[str, float]:
    if not values:
        return {"count": 0, "mean_ms": 0.0, "p50_ms": 0.0, "p90_ms": 0.0,
                "p99_ms": 0.0}
    return {
        "count": len(values),
        "mean_ms": sum(values) / len(values),
        "p50_ms": percentile(values, 50),
        "p90_ms": percentile(values, 90),
        "p99_ms": percentile(values, 99),
    }


def dominant_stage(stage_ms: Dict[str, float]) -> Optional[str]:
    """The stage carrying the most time (ties break in causal order)."""
    best = None
    best_ms = -1.0
    for stage in STAGE_ORDER:
        ms = stage_ms.get(stage)
        if ms is not None and ms > best_ms:
            best, best_ms = stage, ms
    return best


# ----------------------------------------------------------------------
# Summary
# ----------------------------------------------------------------------
def critpath_summary(spanset: SpanSet,
                     bands: Tuple[Tuple[float, float], ...] = DEFAULT_BANDS,
                     ) -> Dict[str, Any]:
    """The full attribution report for one assembled span set."""
    rows = sorted(iter_deliveries(spanset), key=lambda r: r[2])
    totals = [r[2] for r in rows]

    by_stage: Dict[str, List[float]] = {}
    by_group: Dict[str, List[Tuple[float, Dict[str, float]]]] = {}
    for span, _d, total, stages in rows:
        for stage, ms in stages.items():
            by_stage.setdefault(stage, []).append(ms)
        by_group.setdefault(_group_of(span), []).append((total, stages))

    mean_total = (sum(totals) / len(totals)) if totals else 0.0
    stage_summary: Dict[str, Dict[str, float]] = {}
    for stage in STAGE_ORDER:
        vals = by_stage.get(stage)
        if not vals:
            continue
        st = _stats(vals)
        # Share of the fleet's total delivery latency this stage carries
        # (stages missing on some deliveries still divide by the fleet).
        st["share"] = (sum(vals) / sum(totals)) if sum(totals) > 0 else 0.0
        stage_summary[stage] = st

    band_rows: List[Dict[str, Any]] = []
    n = len(rows)
    for lo, hi in bands:
        lo_i = int(n * lo / 100.0)
        hi_i = n if hi >= 100 else int(n * hi / 100.0)
        chunk = rows[lo_i:hi_i]
        if not chunk:
            continue
        means: Dict[str, float] = {}
        for _s, _d, _total, stages in chunk:
            for stage, ms in stages.items():
                means[stage] = means.get(stage, 0.0) + ms
        for stage in means:
            means[stage] /= len(chunk)
        band_rows.append({
            "band": f"p{lo:g}-p{hi:g}",
            "count": len(chunk),
            "mean_total_ms": sum(t for _s, _d, t, _st in chunk) / len(chunk),
            "dominant": dominant_stage(means),
            "stage_means_ms": {k: means[k] for k in STAGE_ORDER
                               if k in means},
        })

    groups: Dict[str, Any] = {}
    ranked = sorted(by_group.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    for name, entries in ranked[:MAX_GROUPS]:
        g_totals = [t for t, _st in entries]
        g_stage: Dict[str, List[float]] = {}
        for _t, stages in entries:
            for stage, ms in stages.items():
                g_stage.setdefault(stage, []).append(ms)
        groups[name] = {
            "total": _stats(g_totals),
            "stages": {k: _stats(v) for k, v in sorted(g_stage.items())},
        }

    retx_ms = [s.retransmit_ms() for s in spanset.spans.values()]
    retx_n = sum(s.retransmissions() for s in spanset.spans.values())
    give_ups = sum(h.give_ups for s in spanset.spans.values()
                   for h in s.hops.values())

    return {
        "schema": CRITPATH_SCHEMA,
        "deliveries": n,
        "messages": len(spanset),
        "total": _stats(totals),
        "stages": stage_summary,
        "bands": band_rows,
        "groups": groups,
        "groups_omitted": max(0, len(by_group) - MAX_GROUPS),
        "retransmit": {
            "count": retx_n,
            "give_ups": give_ups,
            "overlay_ms_mean": (sum(retx_ms) / len(retx_ms))
            if retx_ms else 0.0,
        },
        "mean_total_ms": mean_total,
    }


def stage_means(summary: Dict[str, Any]) -> Dict[str, float]:
    """Compact ``{stage: mean_ms}`` view of a critpath summary — the
    ``span_stages`` form the live diff compares sides with."""
    return {stage: st["mean_ms"]
            for stage, st in (summary.get("stages") or {}).items()}


def stage_delta(current: Dict[str, float], baseline: Dict[str, float],
                ) -> List[Dict[str, Any]]:
    """Per-stage delta rows between two ``{stage: mean_ms}`` views."""
    rows = []
    for stage in STAGE_ORDER:
        cur = current.get(stage)
        base = baseline.get(stage)
        if cur is None and base is None:
            continue
        rows.append({
            "stage": stage,
            "current_ms": cur,
            "baseline_ms": base,
            "delta_ms": (cur or 0.0) - (base or 0.0),
        })
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_critpath(summary: Dict[str, Any], name: str = "run") -> str:
    """Human-readable attribution tables."""
    lines = [f"critical path — {name}: {summary['deliveries']} deliveries "
             f"over {summary['messages']} messages"]
    total = summary.get("total") or {}
    if total.get("count"):
        lines.append(
            f"  end-to-end: mean {total['mean_ms']:.2f} ms  "
            f"p50 {total['p50_ms']:.2f}  p90 {total['p90_ms']:.2f}  "
            f"p99 {total['p99_ms']:.2f}")
    stages = summary.get("stages") or {}
    if stages:
        lines.append("  stage                mean      p50      p90      "
                     "p99    share")
        for stage in STAGE_ORDER:
            st = stages.get(stage)
            if st is None:
                continue
            lines.append(
                f"  {stage:<16} {st['mean_ms']:>8.2f} {st['p50_ms']:>8.2f} "
                f"{st['p90_ms']:>8.2f} {st['p99_ms']:>8.2f} "
                f"{st['share']:>7.1%}")
    bands = summary.get("bands") or []
    if bands:
        lines.append("  band        n       mean-total  dominant stage")
        for b in bands:
            lines.append(
                f"  {b['band']:<9} {b['count']:>5}  "
                f"{b['mean_total_ms']:>10.2f}  {b['dominant'] or '-'}")
    retx = summary.get("retransmit") or {}
    if retx:
        lines.append(
            f"  retransmit overlay: {retx.get('count', 0)} retx, "
            f"{retx.get('give_ups', 0)} give-ups, "
            f"mean {retx.get('overlay_ms_mean', 0.0):.2f} ms/message")
    omitted = summary.get("groups_omitted", 0)
    groups = summary.get("groups") or {}
    if len(groups) > 1 or omitted:
        lines.append("  group breakdown (largest first):")
        for gname, g in groups.items():
            t = g["total"]
            lines.append(
                f"    {gname:<20} n={t['count']:<6} "
                f"mean {t['mean_ms']:>8.2f}  p99 {t['p99_ms']:>8.2f}")
        if omitted:
            lines.append(f"    … {omitted} more groups omitted")
    return "\n".join(lines)


def render_stage_delta(rows: List[Dict[str, Any]],
                       left: str = "current",
                       right: str = "baseline") -> str:
    """Fixed-width per-stage delta table (live diff)."""
    # Labels are often file paths; keep the tail, which disambiguates.
    left = left if len(left) <= 24 else "…" + left[-23:]
    right = right if len(right) <= 24 else "…" + right[-23:]
    w = max(10, len(left), len(right))
    lines = [f"  {'stage':<16} {left:>{w}} {right:>{w}}      delta"]
    for r in rows:
        cur = "-" if r["current_ms"] is None else f"{r['current_ms']:.2f}"
        base = "-" if r["baseline_ms"] is None else f"{r['baseline_ms']:.2f}"
        lines.append(f"  {r['stage']:<16} {cur:>{w}} {base:>{w}} "
                     f"{r['delta_ms']:>+9.2f} ms")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Chrome-trace / Perfetto export
# ----------------------------------------------------------------------
def chrome_trace(spanset: SpanSet, limit: Optional[int] = 200,
                 ) -> Dict[str, Any]:
    """Spans as Chrome-trace JSON (load in Perfetto / chrome://tracing).

    One thread per message (named ``source #local_seq``), complete
    ("X") slices for the first delivery's stages in causal order,
    instant events for retransmissions and any additional deliveries.
    Timestamps are microseconds (logical ms × 1000).  ``limit`` bounds
    the export (earliest-sent messages first); None exports everything.
    """
    events: List[Dict[str, Any]] = []
    spans = sorted(
        spanset.spans.values(),
        key=lambda s: (s.send_t if s.send_t is not None else float("inf"),
                       str(s.source), s.local_seq))
    if limit is not None:
        spans = spans[:limit]
    events.append({"ph": "M", "pid": 1, "tid": 0, "name": "process_name",
                   "args": {"name": "repro messages"}})
    for tid, span in enumerate(spans, start=1):
        events.append({
            "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
            "args": {"name": f"{span.source} #{span.local_seq}"}})
        first = min(span.deliveries, key=lambda d: d.t, default=None)
        if first is not None:
            staged = delivery_stages(span, first)
            if staged is not None:
                cursor = span.send_t
                for stage in STAGE_ORDER:
                    ms = staged[1].get(stage)
                    if ms is None:
                        continue
                    events.append({
                        "ph": "X", "pid": 1, "tid": tid, "name": stage,
                        "cat": "span", "ts": cursor * 1000.0,
                        "dur": ms * 1000.0,
                        "args": {"mh": first.mh, "gseq": span.gseq}})
                    cursor += ms
            for d in span.deliveries:
                if d is not first:
                    events.append({
                        "ph": "i", "pid": 1, "tid": tid, "s": "t",
                        "name": f"deliver@{d.mh}", "cat": "span",
                        "ts": d.t * 1000.0})
        for hop in span.hops.values():
            if hop.retx and hop.last_send is not None:
                events.append({
                    "ph": "i", "pid": 1, "tid": tid, "s": "t",
                    "name": f"retx {hop.src}->{hop.dst} x{hop.retx}",
                    "cat": "retransmit", "ts": hop.last_send * 1000.0})
            if hop.give_ups:
                events.append({
                    "ph": "i", "pid": 1, "tid": tid, "s": "t",
                    "name": f"give_up {hop.src}->{hop.dst}",
                    "cat": "retransmit",
                    "ts": (hop.last_send or hop.first_send or 0.0) * 1000.0})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spanset: SpanSet,
                       limit: Optional[int] = 200) -> int:
    """Write :func:`chrome_trace` output; returns the event count."""
    import json
    payload = chrome_trace(spanset, limit=limit)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return len(payload["traceEvents"])
