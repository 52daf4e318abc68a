"""Command-line entry point: ``python -m repro.obs``.

Subcommands
-----------
* ``summarize REPORT`` — digest one ``OBS_*.json`` run report: engine
  totals, registry counters/gauges/histograms, trace-kind counts, the
  profiler's heaviest cost centers, and (for sharded reports) per-shard
  stall/barrier/export-queue lines.
* ``top REPORT`` — just the profiler's ``top``-style table, heaviest
  dispatch cost centers first (the compiled-kernel target list).
* ``timeline FILE`` — tabulate a ``*_timeline.jsonl.gz`` per-window
  timeline; ``--metric`` adds per-window counter/kind/gauge columns.
* ``spans INPUT`` — assemble per-message causal span trees and report
  completeness (every delivered message rooted, no orphan segments).
* ``critpath INPUT`` — per-stage latency attribution: stage shares,
  dominant stage per percentile band, retransmit overlay, per-group
  breakdown.  On a ``live diff`` report it prints the per-stage
  sim-vs-live delta table instead.
* ``export-trace INPUT`` — Chrome-trace / Perfetto JSON export (load
  the file at https://ui.perfetto.dev or chrome://tracing).

``INPUT`` for the span commands is either a registry scenario name
(the run happens in-process; ``--shards`` uses the space-parallel
backend), a ``SPANS_*.jsonl[.gz]`` span-event stream, or a recorded
trace ``*.jsonl[.gz]`` (coarse stages only — trace records carry no
per-hop detail).  Reports are produced by the ``--obs`` / ``--spans``
flags on ``python -m repro.experiments run|sweep`` and ``--obs`` on
``python -m repro.shard run``.

Examples
--------
::

    python -m repro.experiments run quickstart --obs obs-out
    python -m repro.obs summarize 'obs-out/OBS_quickstart#p0r0.json'
    python -m repro.obs top 'obs-out/OBS_quickstart#p0r0.json' -n 5
    python -m repro.obs timeline \\
        'obs-out/OBS_quickstart#p0r0_timeline.jsonl.gz' \\
        --metric transport.retransmitted --metric deliver
    python -m repro.obs critpath handoff_storm --duration 2500
    python -m repro.obs spans quickstart --shards 4
    python -m repro.obs export-trace quickstart --out trace.json
    python -m repro.obs critpath diff-report.json   # live-diff deltas
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.profiler import render_top
from repro.obs.report import (load_report, load_timeline, render_summary,
                              render_timeline, shard_reports)


def cmd_summarize(args: argparse.Namespace) -> int:
    print(render_summary(load_report(args.report), top=args.top))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    report = load_report(args.report)
    prof = report.get("profiler") or {}
    rows = prof.get("top") or []
    if not rows:
        # A sharded report carries one profiler per shard; merge by
        # printing each (wall times are per-process, not comparable
        # across shards, so no cross-shard re-ranking).
        subs = shard_reports(report)
        if not subs:
            print("(report carries no profiler samples)")
            return 1
        for i, sub in enumerate(subs):
            print(f"shard {i}:")
            print(render_top((sub.get("profiler") or {}).get("top") or [],
                             limit=args.n))
        return 0
    print(render_top(rows, limit=args.n))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    rows = load_timeline(args.timeline)
    print(render_timeline(rows, metrics=args.metric or (), tail=args.tail))
    return 0


# ----------------------------------------------------------------------
# Span subcommands
# ----------------------------------------------------------------------
def _resolve_span_events(args: argparse.Namespace,
                         ) -> Tuple[List[tuple], str, Dict[str, Any]]:
    """INPUT -> (span events, display name, overlays).

    An existing file is a span-event stream (lines are JSON arrays) or
    a recorded trace (lines are JSON objects — coarse stages only);
    anything else is a registry scenario name, run in-process.
    """
    from repro.experiments import registry
    from repro.obs.spans import events_from_trace, read_span_events
    from repro.shard.runtime import run_sharded

    target = args.input
    if os.path.exists(target):
        name = os.path.basename(target)
        opener = gzip.open if target.endswith(".gz") else open
        with opener(target, "rt", encoding="utf-8") as fh:
            first = fh.readline().lstrip()
        if first.startswith("["):
            return read_span_events(target), name, {}
        with opener(target, "rt", encoding="utf-8") as fh:
            return events_from_trace(fh), name, {}

    spec = registry.resolve(target, args.duration, args.seed)
    # ``--shards 1`` (the default) is the sequential engine; the rate
    # travels as an argument, so worker collectors see it and the
    # calling process's environment is never touched.
    res = run_sharded(spec, getattr(args, "shards", 1) or 1,
                      spans=True if args.rate is None else args.rate)
    return res.span_events or [], spec.name, res.span_overlays()


def cmd_spans(args: argparse.Namespace) -> int:
    from repro.obs.spans import assemble, completeness, write_span_events

    events, name, _ = _resolve_span_events(args)
    spanset = assemble(events)
    comp = completeness(spanset)
    if args.out:
        write_span_events(args.out, events)
        print(f"wrote {args.out} ({len(events)} span events)")
    print(f"{name}: {len(events):,} span events -> "
          f"{comp['messages']:,} message span trees, "
          f"{comp['delivered']:,} delivered "
          f"({comp['deliveries']:,} deliveries)")
    retx = sum(s.retransmissions() for s in spanset.spans.values())
    print(f"retransmissions: {retx:,}")
    if comp["ok"]:
        print("completeness: ok — every tree rooted, no orphan events")
        return 0
    print(f"completeness: FAIL — {len(comp['unrooted'])} unrooted trees, "
          f"{comp['orphan_events']} orphan events")
    for key in comp["unrooted"][:10]:
        print(f"  unrooted: {key}")
    return 1


def cmd_critpath(args: argparse.Namespace) -> int:
    from repro.obs.critpath import (critpath_summary, render_critpath,
                                    render_stage_delta)

    if args.input.endswith(".json") and os.path.exists(args.input):
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        stages = payload.get("span_stages")
        if isinstance(stages, dict) and "delta" in stages:
            # A live-diff report: per-stage sim-vs-live divergence.
            print(f"{payload.get('name', args.input)}: per-stage latency, "
                  f"live vs sim")
            print(render_stage_delta(stages["delta"], "live", "sim"))
            return 0
        if "stages" in payload and "bands" in payload:
            # An already-computed CRITPATH_*.json summary.
            print(render_critpath(payload, name=os.path.basename(args.input)))
            return 0
        raise ValueError(
            f"{args.input} carries neither span_stages nor a critpath "
            f"summary")

    from repro.obs.spans import assemble
    events, name, overlays = _resolve_span_events(args)
    summary = critpath_summary(assemble(events), overlays=overlays or None)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")
    print(render_critpath(summary, name=name))
    return 0


def cmd_export_trace(args: argparse.Namespace) -> int:
    from repro.obs.critpath import write_chrome_trace
    from repro.obs.spans import assemble

    events, name, _ = _resolve_span_events(args)
    spanset = assemble(events)
    out = args.out or f"TRACE_{name}.json"
    n = write_chrome_trace(out, spanset,
                           limit=args.limit if args.limit > 0 else None)
    print(f"wrote {out} ({n} trace events; open at "
          f"https://ui.perfetto.dev or chrome://tracing)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="runtime telemetry: summarize, top, timeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="digest one OBS_*.json report")
    p_sum.add_argument("report", help="path to an OBS_*.json run report")
    p_sum.add_argument("--top", type=int, default=5,
                       help="profiler rows to include (default 5)")
    p_sum.set_defaults(fn=cmd_summarize)

    p_top = sub.add_parser("top", help="dispatch cost centers, heaviest "
                                       "first")
    p_top.add_argument("report", help="path to an OBS_*.json run report")
    p_top.add_argument("-n", type=int, default=10,
                       help="rows to show (default 10)")
    p_top.set_defaults(fn=cmd_top)

    p_tl = sub.add_parser("timeline", help="tabulate a per-window timeline")
    p_tl.add_argument("timeline", help="path to OBS_*_timeline.jsonl[.gz]")
    p_tl.add_argument("--metric", action="append", metavar="NAME",
                      help="add a per-window counter/kind/gauge column, "
                           "repeatable")
    p_tl.add_argument("--tail", type=int, default=0,
                      help="show only the last N windows")
    p_tl.set_defaults(fn=cmd_timeline)

    def span_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input",
                       help="registry scenario name, SPANS_*.jsonl[.gz] "
                            "span stream, or recorded trace *.jsonl[.gz]")
        p.add_argument("--duration", type=float, default=None, metavar="MS",
                       help="override duration_ms (scenario input only)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        p.add_argument("--shards", type=int, default=1, metavar="K",
                       help="run the scenario on the space-parallel "
                            "backend with K workers (spans are stitched "
                            "across shard export boundaries)")
        p.add_argument("--rate", type=float, default=None,
                       help="sampled tracing: keep this fraction of "
                            "messages, deterministically (default: "
                            "REPRO_SPANS_SAMPLE or 1.0)")

    p_sp = sub.add_parser("spans", help="assemble per-message span trees "
                                        "and check completeness")
    span_input(p_sp)
    p_sp.add_argument("--out", default=None, metavar="FILE",
                      help="also write the span-event stream here "
                           "(.jsonl.gz)")
    p_sp.set_defaults(fn=cmd_spans)

    p_cp = sub.add_parser("critpath", help="per-stage latency attribution "
                                           "(also reads live-diff reports)")
    span_input(p_cp)
    p_cp.add_argument("--report", default=None, metavar="FILE",
                      help="also write the critpath summary JSON here")
    p_cp.set_defaults(fn=cmd_critpath)

    p_et = sub.add_parser("export-trace",
                          help="Chrome-trace/Perfetto JSON export")
    span_input(p_et)
    p_et.add_argument("--out", default=None, metavar="FILE",
                      help="output path (default TRACE_<name>.json)")
    p_et.add_argument("--limit", type=int, default=200,
                      help="max message spans to export (default 200; "
                           "0 = all)")
    p_et.set_defaults(fn=cmd_export_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream reader (e.g. ``| head``) closed the pipe; the
        # conventional quiet exit, not a report error.
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"error: {exc.strerror or exc}: {exc.filename}"
              if exc.filename else f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
