"""Render a run's ``obs`` section: digest, cost centers, timeline.

The section is :meth:`~repro.obs.session.ObsSession.report` on the
sequential engine, the per-shard reports rolled up by
:mod:`repro.shard.runtime` on the sharded one and the trace counts of
:class:`~repro.live.builder.LiveRun` on the live one; this module is
the read side of ``python -m repro show`` on a run artifact, and of
tests.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.obs.profiler import render_top


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:,.6g}"
    if isinstance(v, int):
        return f"{v:,}"
    return str(v)


def _kv_lines(title: str, data: Dict[str, Any], limit: int = 0) -> List[str]:
    lines = [f"{title}:"]
    items = sorted(data.items(), key=lambda kv: (-_sort_key(kv[1]), kv[0]))
    if limit:
        items = items[:limit]
    for k, v in items:
        lines.append(f"  {k:40s} {_fmt_value(v)}")
    return lines


def _sort_key(v: Any) -> float:
    try:
        return float(v)
    except (TypeError, ValueError):
        return 0.0


def render_summary(report: Dict[str, Any], top: int = 5) -> str:
    """Human-readable digest of one run's ``obs`` section."""
    shards = report.get("shards") or []
    head = f"{report.get('name', '?')}: {report.get('events', 0):,} events"
    if report.get("windows"):
        head += (f" over {report['windows']} windows of "
                 f"{report.get('window_ms', 0):g} ms")
    lines = [f"{head} (horizon {report.get('horizon_ms', 0):g} ms)"]
    engine = report.get("engine") or {}
    if engine:
        lines.append(
            f"engine: {engine.get('events_processed', 0):,} processed  "
            f"peak_heap={engine.get('peak_heap', 0):,}  "
            f"compactions={engine.get('compactions', 0)}")
    if report.get("sample_every"):
        lines.append(f"sampling: every {report['sample_every']} dispatches")
    for name, h in sorted((report.get("histograms") or {}).items()):
        if h.get("count"):
            lines.append(
                f"hist {name}: n={h['count']:,} mean={h['mean']:,.3g} "
                f"p50<={h['p50']:g} p99<={h['p99']:g} max={h['max']:,.6g}")
    kinds = report.get("trace_counts") or {}
    if kinds:
        lines.extend(_kv_lines(f"trace records by kind "
                               f"(top {min(top * 2, len(kinds))})",
                               kinds, limit=top * 2))
    prof = report.get("profiler") or {}
    if prof.get("top"):
        lines.append(f"dispatch cost centers (stride {prof.get('stride')}, "
                     f"{prof.get('samples', 0):,} samples):")
        lines.append(render_top(prof["top"], limit=top))
    if shards:
        lines.append(f"shards: {len(shards)}")
        for i, sub in enumerate(shards):
            win = sub.get("shard_windows") or {}
            lines.append(
                f"  shard {i}: {sub.get('events', 0):,} events  "
                f"stalls={win.get('stalls', 0)} "
                f"barrier_wait={win.get('barrier_wait_s', 0.0):.3f}s")
    return "\n".join(lines)


def render_timeline(rows: Iterable[Dict[str, Any]],
                    metrics: Iterable[str] = (),
                    tail: int = 0) -> str:
    """Tabulate timeline rows: window, span, events, heap, + metrics.

    ``metrics`` names trace kinds, matched in the row's per-window
    ``kinds`` counts.
    """
    rows = list(rows)
    if tail:
        rows = rows[-tail:]
    if not rows:
        return "(empty timeline)"
    metrics = list(metrics)
    headers = ["w", "shard", "t0", "t1", "events", "heap"] + metrics
    has_shard = any("shard" in r for r in rows)
    if not has_shard:
        headers.remove("shard")
    body = []
    for r in rows:
        cells = [str(r.get("w", ""))]
        if has_shard:
            cells.append(str(r.get("shard", "")))
        cells.extend([f"{r.get('t0', 0):g}", f"{r.get('t1', 0):g}",
                      f"{r.get('events', 0):,}", f"{r.get('heap', 0):,}"])
        kinds = r.get("kinds") or {}
        for m in metrics:
            v = kinds.get(m)
            cells.append("" if v is None else _fmt_value(v))
        body.append(cells)
    widths = [max(len(h), *(len(b[i]) for b in body))
              for i, h in enumerate(headers)]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    out.extend("  ".join(c.rjust(w) for c, w in zip(b, widths))
               for b in body)
    return "\n".join(out)


__all__ = ["render_summary", "render_timeline"]
