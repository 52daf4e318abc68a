"""Command-line entry point: ``python -m repro.validation``.

Subcommands
-----------
* ``fuzz`` — run a randomized-but-seeded conformance campaign; exit
  code 1 when any invariant is violated.
* ``record NAME`` — run a registry scenario and capture its canonical
  JSONL trace stream.
* ``replay FILE`` — re-run the monitors offline over a recorded stream.
* ``diff A B`` — report the first divergence between two streams.

Examples
--------
::

    python -m repro.validation fuzz --budget 20 --duration 2000 \\
        --out fuzz-report.json --save-traces fuzz-failures/
    python -m repro.validation record quickstart --duration 2000 \\
        --out run-a.jsonl
    python -m repro.validation replay run-a.jsonl --system ringnet
    python -m repro.validation diff run-a.jsonl run-b.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.experiments.__main__ import add_spec_args, spec_for_args
from repro.experiments.results import RunResult
from repro.validation.fuzz import fuzz
from repro.validation.record import (first_divergence, read_jsonl,
                                     record_spec, replay)
from repro.validation.suite import standard_suite


def _print_violations(violations: Sequence[str], limit: int = 20) -> None:
    for v in violations[:limit]:
        print(f"  VIOLATION {v}")
    if len(violations) > limit:
        print(f"  ... and {len(violations) - limit} more")


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_fuzz(args: argparse.Namespace) -> int:
    def progress(i: int, total: int, result: RunResult) -> None:
        if args.quiet:
            return
        status = (f"{len(result.violations)} VIOLATIONS"
                  if result.violations else "ok")
        print(f"[{i + 1:3d}/{total}] {result.name:12s} "
              f"system={result.system:11s} seed={result.seed:<20d} "
              f"deliveries={result.delivered:6d}  {status}", flush=True)
        _print_violations(result.violations)

    report = fuzz(budget=args.budget, base_seed=args.seed,
                  duration_ms=args.duration, progress=progress,
                  save_traces_dir=args.save_traces)
    print(f"\nfuzz: {report.budget} cases, "
          f"{len(report.failed_cases)} failed, "
          f"{report.total_violations} total violations")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0 if report.ok else 1


def cmd_record(args: argparse.Namespace) -> int:
    rec = record_spec(spec_for_args(args))
    rec.write(args.out)
    print(f"recorded {rec.count} trace records to {args.out}")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    records = read_jsonl(args.file)
    suite = standard_suite(args.system)
    replay(records, suite)
    print(f"replayed {len(records)} records through "
          f"{len(suite)} monitors")
    for name, rep in suite.report().items():
        detail = " ".join(f"{k}={v}" for k, v in rep.items()
                          if k != "monitor")
        print(f"  {name:12s} {detail}")
    violations = suite.all_violations()
    if violations:
        print(f"{len(violations)} violations:")
        _print_violations(violations)
        return 1
    print("no violations")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    left = read_jsonl(args.left)
    right = read_jsonl(args.right)
    div = first_divergence(left, right)
    if div is None:
        print(f"streams identical ({len(left)} records)")
        return 0
    print("streams diverge at " + div.describe())
    return 1


# ----------------------------------------------------------------------
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validation",
        description="protocol conformance: fuzz, record, replay, diff",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fuzz = sub.add_parser("fuzz", help="randomized conformance campaign")
    p_fuzz.add_argument("--budget", type=int, default=20,
                        help="number of random scenarios (default 20)")
    p_fuzz.add_argument("--duration", type=float, default=3_000.0,
                        metavar="MS", help="per-scenario duration_ms")
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="campaign base seed (default 0)")
    p_fuzz.add_argument("--out", default=None, metavar="FILE",
                        help="write the JSON campaign report here")
    p_fuzz.add_argument("--save-traces", default=None, metavar="DIR",
                        help="save spec + trace JSONL for failing cases")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    p_fuzz.set_defaults(fn=cmd_fuzz)

    p_rec = sub.add_parser("record", help="record a scenario's trace")
    add_spec_args(p_rec)
    p_rec.add_argument("--out", required=True, metavar="FILE",
                       help="JSONL output path")
    p_rec.set_defaults(fn=cmd_record)

    p_rep = sub.add_parser("replay", help="replay a trace through monitors")
    p_rep.add_argument("file", help="JSONL trace stream")
    # Validated choices: a typo here would silently select the reduced
    # (orderless) monitor set and report a dirty trace as clean.
    from repro.experiments.spec import SYSTEMS
    p_rep.add_argument("--system", default="ringnet", choices=SYSTEMS,
                       help="system the trace came from (selects monitors)")
    p_rep.set_defaults(fn=cmd_replay)

    p_diff = sub.add_parser("diff", help="first divergence of two traces")
    p_diff.add_argument("left")
    p_diff.add_argument("right")
    p_diff.set_defaults(fn=cmd_diff)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
