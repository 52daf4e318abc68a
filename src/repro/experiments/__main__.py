"""Command-line entry point: ``python -m repro.experiments``.

Subcommands
-----------
* ``list`` — show the scenario registry.
* ``run NAME`` — run one scenario (optionally replicated) and print a
  result table; ``--out``/``--csv`` write machine-readable artifacts.
* ``sweep [NAME]`` — expand a parameter grid (``--param`` axes, or the
  scenario's default sweep) × ``--reps`` replications, execute it with
  ``--jobs`` worker processes, aggregate mean/std/CI per point, and
  write the JSON artifact.

Examples
--------
::

    python -m repro.experiments list
    python -m repro.experiments run quickstart --duration 2000
    python -m repro.experiments sweep quickstart \\
        --param hierarchy.n_br=3,5,7 --param workload.rate_per_sec=10,50 \\
        --reps 3 --jobs 4 --out results.json --csv results.csv

Exports are deterministic: the same scenario, axes, and ``--seed``
produce byte-identical ``--out`` files run after run (pass ``--timing``
to additionally record wall-clock times, which of course vary).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments import registry
from repro.experiments.grid import expand_grid
from repro.experiments.results import (RunResult, aggregate, export_csv,
                                       export_json)
from repro.experiments.runner import run_sweep
from repro.metrics.report import format_table


def _parse_value(text: str) -> Any:
    """Best-effort literal parsing: booleans/null (Python or JSON
    spelling), then JSON, then bare string."""
    special = {"true": True, "false": False, "null": None, "none": None}
    if text.strip().lower() in special:
        return special[text.strip().lower()]
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_params(items: Optional[Sequence[str]]) -> Dict[str, List[Any]]:
    """``["a.b=1,2", "c=x"] -> {"a.b": [1, 2], "c": ["x"]}``."""
    sweep: Dict[str, List[Any]] = {}
    for item in items or ():
        if "=" not in item:
            raise SystemExit(f"--param needs key=v1,v2,... (got {item!r})")
        key, _, values = item.partition("=")
        sweep[key.strip()] = [_parse_value(v) for v in values.split(",")]
    return sweep


def _parse_sets(items: Optional[Sequence[str]]) -> Dict[str, Any]:
    """``["a.b=5"] -> {"a.b": 5}`` (single-value overrides)."""
    return {k: vs[0] for k, vs in _parse_params(items).items()}


def add_spec_args(p: argparse.ArgumentParser) -> None:
    """The arguments that name a spec, for this CLI, ``repro.shard`` and
    ``repro.validation record``."""
    p.add_argument("scenario", nargs="?", default="quickstart",
                   help="registry scenario name (default: quickstart)")
    p.add_argument("--duration", type=float, default=None, metavar="MS",
                   help="override duration_ms (warmup is zeroed if it "
                        "no longer fits)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed (replication seeds derive "
                        "from it)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path spec override, repeatable")


def spec_for_args(args: argparse.Namespace):
    """:func:`registry.resolve` over what :func:`add_spec_args` parsed."""
    return registry.resolve(args.scenario, args.duration, args.seed,
                            _parse_sets(args.set))


def _result_rows(results: Sequence[RunResult]) -> List[Dict[str, Any]]:
    return [{
        "run": r.run_id,
        "system": r.system,
        **{k: v for k, v in sorted(r.params.items())},
        "seed": r.seed,
        "goodput": round(r.goodput, 2),
        "p50_ms": round(r.latency.get("p50", 0.0), 1),
        "p99_ms": round(r.latency.get("p99", 0.0), 1),
        "violations": r.order_violations if r.order_checked else "n/a",
        "retx": r.retransmissions,
        "handoffs": r.handoffs,
        "wall_s": round(r.wall_time_s, 2),
    } for r in results]


def _aggregate_rows(aggs: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for a in aggs:
        m = a["metrics"]
        rows.append({
            "point": a["point_index"],
            "system": a["system"],
            **{k: v for k, v in sorted(a["params"].items())},
            "n": a["n"],
            "goodput": round(m["goodput"]["mean"], 2),
            "±ci95": round(m["goodput"]["ci95"], 2),
            "p50_ms": round(m["latency_p50"]["mean"], 1),
            "p99_ms": round(m["latency_p99"]["mean"], 1),
            "violations": m["order_violations"]["mean"],
            "retx": round(m["retransmissions"]["mean"], 1),
        })
    return rows


def _write_artifacts(args: argparse.Namespace, results: List[RunResult],
                     meta: Dict[str, Any]) -> None:
    aggs = aggregate(results)
    if args.out:
        export_json(args.out, results, aggs, meta=meta,
                    include_timing=args.timing)
        print(f"wrote {args.out}")
    if args.csv:
        export_csv(args.csv, aggs)
        print(f"wrote {args.csv}")


def _progress(i: int, total: int, result: RunResult) -> None:
    print(f"[{i + 1:3d}/{total}] {result.run_id:30s} "
          f"goodput={result.goodput:8.2f} msg/s  "
          f"wall={result.wall_time_s:6.2f}s", flush=True)


def _report_check(results: Sequence[RunResult]) -> int:
    """Print ``--check`` outcomes; returns the exit code contribution."""
    failed = [r for r in results if r.violations]
    if not failed:
        print(f"check: all {len(results)} runs satisfied every "
              f"protocol invariant")
        return 0
    for r in failed:
        print(f"check: {r.run_id}: {len(r.violations)} violations")
        for v in r.violations[:10]:
            print(f"  VIOLATION {v}")
        if len(r.violations) > 10:
            print(f"  ... and {len(r.violations) - 10} more")
    return 3


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in registry.names():
        e = registry.entry(name)
        sweep = e.default_sweep
        rows.append({
            "scenario": name,
            "description": e.description,
            "default sweep": " × ".join(f"{k}[{len(v)}]"
                                        for k, v in sweep.items())
                             if sweep else "-",
        })
    print(format_table(rows))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    base = spec_for_args(args)
    points = expand_grid(base, sweep=None, replications=args.reps,
                         root_seed=args.seed)
    results = run_sweep(points, jobs=args.jobs,
                        progress=_progress if not args.quiet else None,
                        check=args.check, obs_dir=args.obs,
                        spans_dir=args.spans)
    print()
    print(format_table(_result_rows(results)))
    _write_artifacts(args, results, meta={
        "command": "run", "scenario": args.scenario,
        "replications": args.reps, "root_seed": base.seed,
    })
    return _report_check(results) if args.check else 0


def cmd_sweep(args: argparse.Namespace) -> int:
    base = spec_for_args(args)
    sweep = _parse_params(args.param)
    if not sweep:
        sweep = registry.default_sweep(args.scenario) or {}
    if not sweep:
        raise SystemExit(
            f"scenario {args.scenario!r} has no default sweep; give axes "
            f"with --param key=v1,v2,...")
    points = expand_grid(base, sweep=sweep, replications=args.reps,
                         root_seed=args.seed)
    print(f"sweep: {len(points)} runs "
          f"({len(points) // args.reps} points × {args.reps} reps, "
          f"jobs={args.jobs})")
    results = run_sweep(points, jobs=args.jobs,
                        progress=_progress if not args.quiet else None,
                        check=args.check, obs_dir=args.obs,
                        spans_dir=args.spans)
    print()
    print(format_table(_aggregate_rows(aggregate(results))))
    _write_artifacts(args, results, meta={
        "command": "sweep", "scenario": args.scenario,
        "sweep": {k: list(v) for k, v in sweep.items()},
        "replications": args.reps, "root_seed": base.seed,
    })
    return _report_check(results) if args.check else 0


# ----------------------------------------------------------------------
def _add_common(p: argparse.ArgumentParser, default_jobs: int) -> None:
    add_spec_args(p)
    p.add_argument("--reps", type=int, default=None,
                   help="replications per point")
    p.add_argument("--jobs", type=int, default=default_jobs,
                   help=f"worker processes (default {default_jobs}; "
                        f"1 = serial)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON artifact here")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="write aggregate rows as CSV here")
    p.add_argument("--check", action="store_true",
                   help="attach the repro.validation monitor suite to "
                        "every run; exit 3 on any invariant violation")
    p.add_argument("--obs", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="attach out-of-band telemetry (repro.obs) to "
                        "every run and write OBS_<run_id>.json + timeline "
                        "artifacts to DIR (default: cwd)")
    p.add_argument("--spans", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="attach causal span tracing (repro.obs.spans) to "
                        "every run and write SPANS_<run_id>.jsonl.gz + "
                        "CRITPATH_<run_id>.json artifacts to DIR "
                        "(default: cwd); sample rate via "
                        "REPRO_SPANS_SAMPLE")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock times in the JSON artifact "
                        "(makes it non-reproducible byte-for-byte)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-run progress lines")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="declarative RingNet experiments: list, run, sweep",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario registry") \
       .set_defaults(fn=cmd_list)

    p_run = sub.add_parser("run", help="run one scenario")
    _add_common(p_run, default_jobs=1)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    _add_common(p_sweep, default_jobs=2)
    p_sweep.add_argument("--param", action="append",
                         metavar="KEY=V1,V2,...",
                         help="sweep axis, repeatable; defaults to the "
                              "scenario's default sweep")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "reps", None) is None:
        args.reps = 2 if args.command == "sweep" else 1
    if args.command == "sweep" and args.out is None:
        args.out = "results.json"
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        # Spec/registry validation errors carry user-facing messages;
        # show them without a traceback.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
