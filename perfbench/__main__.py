"""``python -m perfbench`` — run, trace and A/A-check the benchmark.

``one``    one workload, one pass, in this process; the last stdout line
           is the result object ``BENCHMARK.json``'s driver reads.
``run``    the measure pass of every workload, each in its own
           subprocess; prints every end-to-end metric, writes one JSON.
``trace``  the traced pass of every workload (per-layer metrics).
``aa``     both passes twice back to back; relative difference per
           (metric, workload) beside its same-seed bound, exact metrics by
           equality; non-zero exit on a breach.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from repro.bench.measure import write_report

from perfbench import ROOT
from perfbench.metrics import (END_TO_END, EXACT_END_TO_END, PER_LAYER,
                               PER_LAYER_UNITS, SAME_SEED_LAYER_BOUNDS)
from perfbench.workloads import WORKLOADS, get

#: Default length of one measure pass, = BENCHMARK.json's run_seconds.
RUN_SECONDS = 20

#: Budget guard: no pass of any workload may take longer than this.
#: Printed, not enforced; the self-test enforces the quick budget.
PASS_BUDGET_S = 30.0

DEFAULT_OUT = os.path.join(ROOT, "perfbench_out")


# ----------------------------------------------------------------------
# one: a single pass in this process
# ----------------------------------------------------------------------
def run_one(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False,
            out_dir: Optional[str] = None) -> Dict[str, Any]:
    """One pass of one workload; returns the driver's result object
    plus ``notes`` (harness detail that is not a metric)."""
    # Imported here so `--help` and the subprocess fan-out stay instant.
    from perfbench import layers, measure

    wl = get(workload)
    t_begin = time.perf_counter()
    if trace:
        values = layers.trace_pass(wl, seed, quick, out_dir)
        notes = {k[1:]: values.pop(k) for k in list(values) if k[0] == "_"}
        # A paced live run that trips a monitor, or a sharded run that is
        # not the sequential run, fails every operation it was asked for.
        broken = (notes.get("paced_violations", 0)
                  or notes.get("shard_diverged") is not None)
        failed = notes["deliveries"] if broken else 0
        result = {
            "correct": notes["pure"] and failed == 0,
            "attempted": notes["deliveries"],
            "failed": failed,
            "metrics": {n: {"value": v, "unit": PER_LAYER_UNITS[n]}
                        for n, v in values.items()},
        }
    else:
        measured = measure.measure(wl, seed, seconds, quick)
        checked = measure.check(wl, seed, quick)
        notes = {k: measured[k] for k in (
            "repeats", "whole_wall_median_s", "whole_wall_iqr_share",
            "whole_wall_min_s", "wall_s", "setup_median_s", "events",
            "deliveries")}
        notes["latency_p99_sim_ms"] = checked["latency"]["p99"]
        notes["violations"] = checked["violations"][:5]
        result = {
            "correct": measured["repeatable"] and checked["failed"] == 0,
            "attempted": checked["attempted"],
            "failed": checked["failed"],
            "metrics": measure.end_to_end(measured, checked),
        }
    notes["elapsed_s"] = time.perf_counter() - t_begin
    result["notes"] = notes
    return result


def _print_result(workload: str, result: Dict[str, Any]) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:34s} {m['value']:>16.6f} {m['unit']}")
    notes = result["notes"]
    if "whole_wall_median_s" in notes:
        print(f"{workload:15s} whole-window wall over {notes['repeats']} "
              f"repeats: median {notes['whole_wall_median_s']:.4f} s, "
              f"IQR {100 * notes['whole_wall_iqr_share']:.1f}% of median, "
              f"min {notes['whole_wall_min_s']:.4f} s, "
              f"noise floor {notes['wall_s']:.4f} s; "
              f"median set-up {notes['setup_median_s']:.4f} s; "
              f"latency p99 {notes['latency_p99_sim_ms']:.2f} sim_ms")
    if "shard_par_wall_s" in notes:
        seq, par = notes["shard_seq_wall_s"], notes["shard_par_wall_s"]
        print(f"{workload:15s} shard.speedup_vs_seq is min/min of "
              f"{len(seq)} sequential walls ({min(seq):.3f}-{max(seq):.3f} "
              f"s) and {len(par)} sharded walls ({min(par):.3f}-"
              f"{max(par):.3f} s, IQR "
              f"{100 * notes['shard_par_wall_iqr_share']:.1f}% of median); "
              f"median/median {notes['shard_speedup_of_medians']:.3f}")
    share = result["failed"] / result["attempted"]
    # The shard layer is the issue's `wide_shard2` workload folded into
    # this traced pass; it has a pass budget of its own.
    shard_s = notes.get("shard_elapsed_s", 0.0)
    over = ("  OVER BUDGET" if max(notes["elapsed_s"] - shard_s, shard_s)
            > PASS_BUDGET_S else "")
    elapsed = f"elapsed {notes['elapsed_s']:.1f} s"
    if shard_s:
        elapsed += f" ({shard_s:.1f} s of it the shard layer)"
    print(f"{workload:15s} failed_ops_share {share:.6f} "
          f"({result['failed']} of {result['attempted']}), "
          f"correct={result['correct']}, {elapsed}{over}")
    for v in notes.get("violations", ()):
        print(f"{workload:15s} violation: {v}")


def cmd_one(args) -> int:
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.quick, args.out)
    _print_result(args.workload, result)
    print(json.dumps({"notes": result.pop("notes")}))
    print(json.dumps(result))
    return 0 if result["correct"] and result["failed"] == 0 else 1


# ----------------------------------------------------------------------
# run / trace: every workload, one subprocess each
# ----------------------------------------------------------------------
def _spawn_one(workload: str, seed: int, seconds: float, trace: bool,
               quick: bool, out_dir: str) -> Dict[str, Any]:
    cmd = [sys.executable, "-m", "perfbench", "one", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--out", out_dir]
    if quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"{workload}: pass died with exit code "
                           f"{proc.returncode}")
    print("\n".join(lines[:-2]), flush=True)
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    return result


def run_all(seed: Optional[int], seconds: float, trace: bool, quick: bool,
            out_dir: str) -> Dict[str, Dict[str, Any]]:
    return {wl.name: _spawn_one(
        wl.name, wl.default_seed if seed is None else seed, seconds, trace,
        quick, out_dir) for wl in WORKLOADS}


def _host_stamp() -> Dict[str, Any]:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": loadavg}


def _write_json(path: str, doc: Dict[str, Any]) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    write_report(path, doc)
    print(f"wrote {path}")


def _ok(results: Dict[str, Dict[str, Any]]) -> bool:
    return all(r["correct"] and r["failed"] == 0 for r in results.values())


def cmd_run(args) -> int:
    kind = "trace" if args.command == "trace" else "run"
    results = run_all(args.seed, args.seconds, kind == "trace", args.quick,
                      args.out)
    _write_json(os.path.join(args.out, f"{kind}.json"),
                {"kind": kind, "host": _host_stamp(), "seed": args.seed,
                 "quick": args.quick, "results": results})
    return 0 if _ok(results) else 1


# ----------------------------------------------------------------------
# aa: the same code twice
# ----------------------------------------------------------------------
def _compared(trace: bool):
    """``(name, unit, better, same-seed bound or None, exact on sim)`` of
    every metric ``aa`` compares in one kind of pass."""
    if not trace:
        return [(n, u, b, bound, n in EXACT_END_TO_END)
                for n, u, b, _, bound in END_TO_END]
    return [(n, u, b, SAME_SEED_LAYER_BOUNDS.get(n), kind == "exact")
            for n, u, b, kind in PER_LAYER
            if kind == "exact" or n in SAME_SEED_LAYER_BOUNDS]


def aa_rows(first: Dict[str, Dict[str, Any]],
            second: Dict[str, Dict[str, Any]],
            trace: bool) -> List[Dict[str, Any]]:
    """One row per (metric, workload): how much worse the second set is,
    beside the rule it is held to — equality for an exact metric on the
    sim backend, the same-seed bound otherwise."""
    rows = []
    for name, unit, better, bound, exact_on_sim in _compared(trace):
        for workload in first:
            a = first[workload]["metrics"][name]["value"]
            b = second[workload]["metrics"][name]["value"]
            exact = exact_on_sim and get(workload).backend != "live"
            if (a == 0 and b == 0) or (bound is None and not exact):
                # The layer is idle on this workload, or it is a count of
                # a live run (asyncio interleaving) nobody put a bound on.
                continue
            worse = ((b - a) if better == "lower" else (a - b)) / (a or 1.0)
            rows.append({
                "metric": name, "workload": workload, "unit": unit,
                "first": a, "second": b, "worse_by": worse,
                "bound": None if exact else bound, "exact": exact,
                "breach": (a != b) if exact else abs(worse) > bound})
    return rows


def cmd_aa(args) -> int:
    # Two sets back to back, each a measure pass and a traced pass of
    # every workload.
    sets = [{trace: run_all(args.seed, args.seconds, trace, args.quick,
                            args.out) for trace in (False, True)}
            for _ in range(2)]
    rows = [row for trace in (False, True)
            for row in aa_rows(sets[0][trace], sets[1][trace], trace)]
    print(f"{'metric':32s} {'workload':15s} {'first':>14s} {'second':>14s} "
          f"{'worse by':>9s} {'bound':>7s}")
    for r in rows:
        rule = "exact" if r["exact"] else f"{100 * r['bound']:.1f}%"
        flag = "  BREACH" if r["breach"] else ""
        print(f"{r['metric']:32s} {r['workload']:15s} {r['first']:14.6f} "
              f"{r['second']:14.6f} {100 * r['worse_by']:8.2f}% "
              f"{rule:>7s}{flag}")
    _write_json(os.path.join(args.out, "aa.json"),
                {"kind": "aa", "host": _host_stamp(), "seed": args.seed,
                 "quick": args.quick, "rows": rows})
    breaches = [r for r in rows if r["breach"]]
    print(f"{len(breaches)} breach(es) in {len(rows)} rows")
    clean = all(_ok(results) for s in sets for results in s.values())
    return 0 if not breaches and clean else 1


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, fan_out: bool) -> None:
        p.add_argument("--seconds", type=float, default=RUN_SECONDS,
                       help="length of one measure pass")
        p.add_argument("--quick", action="store_true",
                       help="shortened windows (smoke runs, self-test)")
        p.add_argument("--out", default=DEFAULT_OUT,
                       help="directory for JSON results and span files")
        if fan_out:
            p.add_argument("--seed", type=int, default=None,
                           help="one seed for every workload (default: "
                                "each workload's pinned seed)")

    one = sub.add_parser("one", help="one workload, one pass, in-process")
    one.add_argument("--workload", required=True,
                     choices=[w.name for w in WORKLOADS])
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    common(one, fan_out=False)
    one.set_defaults(fn=cmd_one)
    for name, fn, text in (("run", cmd_run, "measure pass, all workloads"),
                           ("trace", cmd_run, "traced pass, all workloads"),
                           ("aa", cmd_aa, "both passes twice, compared")):
        p = sub.add_parser(name, help=text)
        common(p, fan_out=True)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        # Same interpreter, same arguments, hash randomisation off: str
        # hashing otherwise moves dict probing cost from run to run.
        os.execve(sys.executable,
                  [sys.executable, "-m", "perfbench"] + sys.argv[1:],
                  dict(os.environ, PYTHONHASHSEED="0"))
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
