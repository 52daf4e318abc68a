"""Command-line entry point: ``python -m repro.bench ladder``.

Measures the pinned scaling ladder (exact work counts + peak RSS per
rung) and writes ``BENCH_ladder.json``; ``--baseline FILE`` gates each
measured rung's ``peak_rss`` against that report.  Exit codes: 0 ok,
1 peak-RSS gate failed, 2 usage error, 3 ``--check`` found
protocol-invariant violations.  Throughput is ``python3 -m perfbench``'s
job; ``python -m repro.experiments run NAME --timing`` times one
registry scenario.  Example::

    python -m repro.bench ladder --rungs xxl --stream-trace traces \\
        --baseline benchmarks/BENCH_baseline_scale.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, Optional, Sequence

from repro.bench.ladder import (DEFAULT_RUNGS, get_rung, node_counts,
                                rung_names, rung_spec)
from repro.bench.measure import (RSS_GROWTH_LIMIT, bench_report,
                                 measure_spec, rss_gate, write_report)


def _print_result(r: Dict[str, Any]) -> None:
    line = (f"{r['name']:6s} nodes={r['nodes']:7d} events={r['events']:9d} "
            f"deliveries={r['deliveries']:7d} wall={r['wall_s']:7.3f}s  "
            f"peak_heap={r['peak_heap']} "
            f"peak_rss={r['peak_rss'] / (1 << 20):.0f}MiB")
    if "trace_path" in r:
        line += f"  streamed={r['trace_records']} records"
    if r["checked"]:
        line += ("  check=ok" if not r["violations"]
                 else f"  check={len(r['violations'])} VIOLATIONS")
    print(line, flush=True)


def _gate(report: Dict[str, Any], baseline_path: str) -> int:
    """Print the peak-RSS comparison; returns 0 ok, 1 failed."""
    with open(baseline_path, "r", encoding="utf-8") as fh:
        rows = rss_gate(report, json.load(fh))
    for ok, line in rows:
        print(f"  {'' if ok else 'FAIL '}{line}")
    failed = sum(not ok for ok, _ in rows)
    if failed:
        print(f"FAIL: {failed} of {len(rows)} rungs failed the peak-RSS "
              f"gate (limit +{RSS_GROWTH_LIMIT:.0%}) vs {baseline_path}")
        return 1
    print(f"ok: peak RSS within +{RSS_GROWTH_LIMIT:.0%} of {baseline_path} "
          f"({len(rows)} rungs compared)")
    return 0


def cmd_ladder(args: argparse.Namespace) -> int:
    names = args.rungs.split(",") if args.rungs else DEFAULT_RUNGS
    rungs = [get_rung(n) for n in names]  # rejects a bad name up front
    if args.stream_trace:
        os.makedirs(args.stream_trace, exist_ok=True)
    results = []
    for rung in rungs:
        spec = rung_spec(rung)
        if args.duration is not None:
            spec = spec.with_overrides({"duration_ms": args.duration})
        pops = node_counts(spec)
        print(f"[{rung.name}] nes={pops['nes']} mhs={pops['mhs']} "
              f"duration={spec.duration_ms:.0f}ms ...", flush=True)
        stream_path = (os.path.join(args.stream_trace,
                                    f"{rung.name}.jsonl.gz")
                       if args.stream_trace else None)
        result = measure_spec(spec, check=args.check,
                              progress=args.progress,
                              stream_path=stream_path)
        result["name"] = rung.name  # not the base scenario's
        results.append(result)
        _print_result(result)

    report = bench_report(results)
    write_report(args.out, report)
    print(f"wrote {args.out}")
    status = _gate(report, args.baseline) if args.baseline else 0
    violations = sum(len(r["violations"]) for r in results)
    if violations:
        print(f"FAIL: --check found {violations} invariant violations")
        return 3
    return status


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="scale-rung memory check: exact counts and peak RSS",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("ladder", help="measure the pinned scaling ladder")
    p.add_argument("--rungs", default=None, metavar="NAMES",
                   help=f"comma-separated subset of {','.join(rung_names())}"
                        f" (default: {','.join(DEFAULT_RUNGS)})")
    p.add_argument("--duration", type=float, default=None, metavar="MS",
                   help="override every selected rung's pinned duration "
                        "(truncated smoke runs)")
    p.add_argument("--check", action="store_true",
                   help="also run once with the validation monitor suite "
                        "attached; exit 3 on violations")
    p.add_argument("--progress", action="store_true",
                   help="heartbeat lines every ~2 wall seconds (obs hook)")
    p.add_argument("--stream-trace", default=None, metavar="DIR",
                   help="stream every rung's full trace to "
                        "DIR/<rung>.jsonl.gz (windowed gzip JSONL)")
    p.add_argument("--out", default="BENCH_ladder.json", metavar="FILE",
                   help="report path (default: %(default)s in cwd)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="gate each measured rung's peak_rss against this "
                        "report; exit 1 on growth or nothing to compare")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return cmd_ladder(args)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
