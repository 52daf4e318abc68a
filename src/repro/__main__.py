"""The command line: ``python -m repro <subcommand>``.

One parser, one ``main()``.  ``run NAME`` is the one way to execute a
scenario — a registry name or an ``ExperimentSpec`` JSON file, through
:func:`repro.experiments.registry.resolve` on every subcommand that
takes one; the backend is read off which selector is present:

* neither — the sequential engine, through the sweep runner
  (``--reps`` / ``--jobs``);
* ``--shards K`` — K worker processes (:func:`repro.shard.run_sharded`);
* ``--live queue|udp`` — the wall-clock asyncio backend
  (``--time-scale``, ``--max-lag-ms``).

Each prints the same run table and writes the same artifact
(``--out`` / ``--csv`` / ``--timing``): one
:class:`~repro.experiments.results.RunResult` per run, a sharded or
live one with its ``shard`` / ``live`` section.

``--check`` / ``--record FILE`` / ``--obs`` / ``--spans [DIR]`` are
four observers (the monitor suite, a trace recorder, an
:class:`~repro.obs.session.ObsSession`, a span collector) that reach the
build through :func:`repro.experiments.runner.observed_scenario`; they
mean the same thing on every backend that has them.  ``--obs`` is a
switch whose ``obs`` section lands in ``--out``'s run entry (no
``--out`` is a usage error); ``--spans`` writes
``SPANS_<run_id>.jsonl.gz`` + ``CRITPATH_<run_id>.json``.  A flag a
backend cannot honour is ``error: ...`` and exit 2, never ignored.

The other subcommands are ``run``'s grid form (``sweep``), harnesses
around it (``compare``, ``live-diff``, ``fuzz``, ``ladder``) and readers
of what it writes (``replay``, ``diff``, ``summarize``, ``top``,
``timeline``, ``spans``, ``critpath``, ``export-trace``), plus ``list``,
``partition``, ``show-plan`` and ``validate-plan``.  ``--duration`` /
``--seed`` / ``--set`` mean the same on every subcommand that takes a
scenario, name or file; ``fuzz`` is a sweep over generated specs and
``--save-traces`` writes its failures as spec files.  Examples::

    python -m repro list
    python -m repro run quickstart --duration 2000 --check
    python -m repro run handoff_storm --shards 4 --record trace.jsonl
    python -m repro run quickstart --live udp --time-scale 0.2 --check
    python -m repro run quickstart --obs --out run.json --spans out
    python -m repro summarize run.json
    python -m repro critpath 'out/SPANS_quickstart#p0r0.jsonl.gz'
    python -m repro sweep quickstart --param hierarchy.n_br=3,5,7 \\
        --reps 3 --jobs 4 --out results.json --csv results.csv
    python -m repro compare failure_drill --shards 2,4
    python -m repro replay trace.jsonl
    python -m repro fuzz --budget 20 --save-traces failures
    python -m repro run failures/fuzz-0007.spec.json --check --spans out

Sweep exports are deterministic: the same scenario, axes and ``--seed``
produce byte-identical ``--out`` files (``--timing`` adds wall-clock
times, which of course vary).
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.bench.ladder import (DEFAULT_RUNGS, get_rung, node_counts,
                                rung_names, rung_spec)
from repro.bench.measure import RSS_GROWTH_LIMIT, peak_rss_bytes, rss_gate
from repro.experiments import registry
from repro.experiments.grid import RunPoint, expand_grid
from repro.experiments.results import (RunResult, aggregate, export_csv,
                                       export_json)
from repro.experiments.runner import (build_scenario, run_point, run_sweep,
                                      write_span_artifacts)
from repro.experiments.spec import SYSTEMS, ExperimentSpec
from repro.faults.plan import FaultPlan
from repro.live.builder import FABRICS, NetworkBuilder
from repro.live.diff import diff_spec
from repro.metrics.report import format_table
from repro.obs.critpath import (critpath_summary, render_critpath,
                                render_stage_delta, write_chrome_trace)
from repro.obs.profiler import render_top
from repro.obs.report import render_summary, render_timeline
from repro.obs.session import ObsSession
from repro.obs.spans import (SpanCollector, assemble, completeness,
                             events_from_trace, read_span_events)
from repro.shard.partition import cut_edges, lookahead_of, partition_spec
from repro.shard.runtime import run_sharded
from repro.sim.trace import StreamingTraceSink, write_trace_lines
from repro.validation import fuzz as campaign
from repro.validation.record import (first_divergence, read_jsonl,
                                     record_spec, replay)
from repro.validation.suite import standard_suite

EXIT_CODES = """\
exit codes:
  0  ok
  1  a check of the run or of the artifact failed: invariant or order
     violation, trace divergence, span incompleteness, sim-vs-live
     disagreement, peak-RSS gate, fuzz failure, invalid plan, dead wire
  2  usage, unknown scenario or rung, invalid spec, unreadable file
  3  OVERLOADED: a live run fell behind --max-lag-ms
"""

EXIT_FAILED, EXIT_USAGE, EXIT_OVERLOADED = 1, 2, 3

#: Worker processes of a campaign (``sweep``, ``fuzz``) by default.
SWEEP_JOBS = 2


# ----------------------------------------------------------------------
# Shared argument and output helpers
# ----------------------------------------------------------------------
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
            raise ValueError(f"expected key=v1,v2,... (got {item!r})")
        key, _, values = item.partition("=")
        sweep[key.strip()] = [_parse_value(v) for v in values.split(",")]
    return sweep


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    """The arguments that name a spec, on every subcommand that takes a
    scenario."""
    p.add_argument("scenario", nargs="?", default="quickstart",
                   help="registry scenario name or ExperimentSpec JSON "
                        "file (default: quickstart)")
    p.add_argument("--duration", type=float, default=None, metavar="MS",
                   help="override duration_ms (warmup is zeroed if it "
                        "no longer fits)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the seed (replication seeds derive "
                        "from it)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="dotted-path spec override, repeatable")


def _spec(args: argparse.Namespace) -> ExperimentSpec:
    """:func:`registry.resolve` over what :func:`_add_spec_args` parsed."""
    sets = {k: vs[0] for k, vs in _parse_params(args.set).items()}
    return registry.resolve(args.scenario, args.duration, args.seed, sets)


def _load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _print_violations(violations: Sequence[str], limit: int = 20) -> None:
    for v in violations[:limit]:
        print(f"  VIOLATION {v}")
    if len(violations) > limit:
        print(f"  ... and {len(violations) - limit} more")


def _progress(i: int, total: int, result: RunResult) -> None:
    print(f"[{i + 1:3d}/{total}] {result.run_id:30s} "
          f"goodput={result.goodput:8.2f} msg/s  "
          f"wall={result.wall_time_s:6.2f}s", flush=True)


def _report_check(results: Sequence[RunResult]) -> int:
    """Print ``--check`` outcomes; returns the exit code."""
    failed = [r for r in results if r.violations]
    if not failed:
        print(f"check: all {len(results)} runs satisfied every "
              f"protocol invariant")
        return 0
    for r in failed:
        print(f"check: {r.run_id}: {len(r.violations)} violations")
        _print_violations(r.violations, limit=10)
    return EXIT_FAILED


def _write_sweep_artifacts(results: List[RunResult], meta: Dict[str, Any],
                           out: Optional[str], csv: Optional[str] = None,
                           timing: bool = False) -> None:
    aggs = aggregate(results)
    if out:
        export_json(out, results, aggs, meta=meta, include_timing=timing)
        print(f"wrote {out}")
    if csv:
        export_csv(csv, aggs)
        print(f"wrote {csv}")


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = []
    for name in registry.names():
        e = registry.entry(name)
        sweep, plan = e.default_sweep, e.factory().faults
        faults = "-"
        if plan:
            t0, t1 = plan.span()
            faults = (f"{len(plan)} action(s) "
                      f"[{t0:g}, {'∞' if t1 is None else f'{t1:g}'}] ms")
        rows.append({
            "scenario": name,
            "description": e.description,
            "default sweep": " × ".join(f"{k}[{len(v)}]"
                                        for k, v in sweep.items())
                             if sweep else "-",
            "fault plan": faults,
        })
    print(format_table(rows))
    return 0


# ----------------------------------------------------------------------
# run: one scenario, three backends, four observers
# ----------------------------------------------------------------------
#: argparse dests a backend cannot honour (left at None/False = not given).
#: ``--check`` needs the net for its end-of-run checks, which a sharded
#: run has in no one process.
_UNSUPPORTED = {
    "sim": ("time_scale", "max_lag_ms"),
    "shards": ("reps", "jobs", "check", "time_scale", "max_lag_ms"),
    "live": ("reps", "jobs"),
}


def _reject_unsupported(args: argparse.Namespace, backend: str,
                        n_runs: int) -> None:
    if args.shards is not None and args.live is not None:
        raise ValueError("--shards and --live select two different "
                         "backends; give one")
    bad = ["--" + d.replace("_", "-") for d in _UNSUPPORTED[backend]
           if getattr(args, d) is not None and getattr(args, d) is not False]
    if bad:
        raise ValueError(
            f"{', '.join(bad)} not supported "
            + ("without --live" if backend == "sim" else f"with --{backend}"))
    if args.obs and args.out is None:
        raise ValueError("--obs writes an obs section into the run entry "
                         "of --out's artifact; give --out FILE")
    if args.rate is not None and args.spans is None:
        raise ValueError("--rate samples span tracing; it needs --spans")
    if n_runs > 1 and (args.record is not None or args.rate is not None):
        raise ValueError("--record / --rate observe one run; not "
                         "supported with --reps > 1")


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


@contextmanager
def _recording(path: Optional[str]):
    """``--record FILE`` as an observer for the in-process backends:
    yields the sink (closed and reported on exit) or ``None``."""
    if path is None:
        yield None
        return
    with StreamingTraceSink(path) as sink:
        yield sink
    print(f"wrote {sink.count} records to {path}")


def _span_rate(args: argparse.Namespace) -> float:
    """``--spans [--rate R]`` as a sampling rate; 0.0 = no span tracing."""
    if args.spans is None:
        return 0.0
    return 1.0 if args.rate is None else args.rate


def _collector(args: argparse.Namespace) -> Optional[SpanCollector]:
    rate = _span_rate(args)
    return SpanCollector(rate=rate) if rate else None


def _report_runs(args: argparse.Namespace, results: List[RunResult],
                 root_seed: int) -> None:
    """The run table and the ``--out`` / ``--csv`` artifacts, the same on
    every backend."""
    print()
    print(format_table(_result_rows(results)))
    _write_sweep_artifacts(results, {
        "command": "run", "scenario": args.scenario,
        "replications": len(results), "root_seed": root_seed,
    }, args.out, args.csv, args.timing)


def _run_sim(args: argparse.Namespace, points: List[RunPoint],
             root_seed: int):
    progress = None if args.quiet else _progress
    spans = None
    if len(points) == 1:
        # In-process: the flags are observer objects on run_point's list.
        point = points[0]
        collector = _collector(args)
        with _recording(args.record) as recorder:
            results = [run_point(point, recorder, collector,
                                 check=args.check, obs=args.obs)]
        if progress is not None:
            progress(0, 1, results[0])
        if collector is not None:
            spans = collector.events
    else:
        # Worker processes: the flags travel as run_sweep's switches and
        # each worker's run_point constructs the same observers.
        results = run_sweep(points,
                            jobs=1 if args.jobs is None else args.jobs,
                            progress=progress, check=args.check,
                            obs=args.obs, spans_dir=args.spans)
    _report_runs(args, results, root_seed)
    return (_report_check(results) if args.check else 0), spans


def _run_shards(args: argparse.Namespace, points: List[RunPoint],
                root_seed: int):
    # Another process runs the scenario: the flags travel as
    # run_sharded's switches and each worker constructs the observers.
    # The merged trace is always recorded: the run's RunResult is
    # harvested from it.
    point = points[0]
    result = run_sharded(point.spec, args.shards, record=True,
                         obs=args.obs, spans=_span_rate(args))
    run = result.run_result(point)
    if not args.quiet:
        # The shard section, per-shard lists included.
        for key, value in run.shard.items():
            print(f"  {key}: {value}")
    _report_runs(args, [run], root_seed)
    if args.record is not None:
        n = write_trace_lines(args.record, result.merged_lines or [])
        print(f"wrote {n} records to {args.record}")
    return 0, result.span_events


def _run_live(args: argparse.Namespace, points: List[RunPoint],
              root_seed: int):
    spec, quiet = points[0].spec, args.quiet
    time_scale = 1.0 if args.time_scale is None else args.time_scale
    collector = _collector(args)
    # Built before --record opens its file: a spec the fabric cannot
    # run leaves no artifact behind.
    builder = NetworkBuilder(spec, fabric=args.live, time_scale=time_scale,
                             monitors=args.check, obs=args.obs)
    with _recording(args.record) as recorder:
        run = builder.build(recorder, collector)
        if not quiet:
            print(f"live run: {spec.name} fabric={args.live} "
                  f"nodes={len(run.scenario.net.fabric.nodes)} "
                  f"duration={spec.duration_ms:.0f}ms "
                  f"time_scale={time_scale}")
        run.run()
    result = run.result
    lag, wire, limit = result.live["lag"], result.live["wire"], args.max_lag_ms
    overloaded = limit is not None and lag["max_lag_ms"] > limit
    if limit is not None:
        result.live.update(overloaded=overloaded, max_lag_limit_ms=limit)
    _report_runs(args, [result], root_seed)
    spans = collector.events if collector is not None else None

    violations = run.violations()
    order, delivered = result.order_violations, result.delivered
    if not quiet:
        print(f"delivered={delivered} "
              f"goodput={result.goodput:.2f}/s "
              f"p50={result.latency.get('p50', 0.0):.1f}ms "
              f"max_lag={lag['max_lag_ms']:.1f}ms "
              f"yields={lag['yields']} "
              f"unaccounted={wire['unaccounted']} lost={wire['lost']}")
        for v in violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
    if violations or order:
        print(f"FAIL: {len(violations)} monitor violation(s), "
              f"{order} order violation(s)", file=sys.stderr)
        code = EXIT_FAILED
    elif result.sent and not (wire["delivered"] and delivered):
        print(f"FAIL: no traffic crossed the wire ({result.sent} sent, "
              f"{wire['delivered']} fabric deliveries, {delivered} app "
              f"deliveries)", file=sys.stderr)
        code = EXIT_FAILED
    elif overloaded:
        print(f"OVERLOADED: zero violations, but the loop ran "
              f"{lag['max_lag_ms']:.1f} logical ms behind its schedule "
              f"(limit {limit:g})", file=sys.stderr)
        code = EXIT_OVERLOADED
    else:
        code = 0
        if not quiet:
            print("ok: zero violations")
    return code, spans


def cmd_run(args: argparse.Namespace) -> int:
    base = _spec(args)
    if args.reps is None and args.scenario not in registry.names():
        # A registry scenario is a template, its runs draw derived
        # replication seeds; a spec file is a resolved point (a saved
        # failure) and, run alone, runs as written — seed included.
        points = [RunPoint(spec=base, seed=base.seed)]
    else:
        points = expand_grid(base, sweep=None, root_seed=args.seed,
                             replications=1 if args.reps is None
                             else args.reps)
    backend = "shards" if args.shards is not None else \
        "live" if args.live is not None else "sim"
    _reject_unsupported(args, backend, len(points))
    # Every backend runs the same point: same derived seed, same run id,
    # hence the same artifact names and the same run entry.
    run = {"sim": _run_sim, "shards": _run_shards, "live": _run_live}[backend]
    code, spans = run(args, points, base.seed)
    if spans is not None:
        paths = write_span_artifacts(args.spans, points[0].run_id, spans)
        print(f"wrote {paths['spans']}, {paths['critpath']}")
    return code


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
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


def cmd_sweep(args: argparse.Namespace) -> int:
    base = _spec(args)
    reps = 2 if args.reps is None else args.reps
    jobs = SWEEP_JOBS if args.jobs is None else args.jobs
    sweep = _parse_params(args.param) \
        or registry.default_sweep(args.scenario) or {}
    if not sweep:
        raise ValueError(
            f"scenario {args.scenario!r} has no default sweep; give axes "
            f"with --param key=v1,v2,...")
    points = expand_grid(base, sweep=sweep, replications=reps,
                         root_seed=args.seed)
    print(f"sweep: {len(points)} runs "
          f"({len(points) // reps} points × {reps} reps, jobs={jobs})")
    results = run_sweep(points, jobs=jobs,
                        progress=_progress if not args.quiet else None,
                        check=args.check, obs=args.obs,
                        spans_dir=args.spans)
    print()
    print(format_table(_aggregate_rows(aggregate(results))))
    _write_sweep_artifacts(results, {
        "command": "sweep", "scenario": args.scenario,
        "sweep": {k: list(v) for k, v in sweep.items()},
        "replications": reps, "root_seed": base.seed,
    }, args.out, args.csv, args.timing)
    return _report_check(results) if args.check else 0


# ----------------------------------------------------------------------
# partition / compare (the sharded backend's plan and its oracle)
# ----------------------------------------------------------------------
def cmd_partition(args: argparse.Namespace) -> int:
    spec = _spec(args)
    plan = partition_spec(spec, args.shards)
    scenario = build_scenario(spec)
    cut = cut_edges(scenario.net.fabric, plan)
    # The run's lookahead, exactly as every worker derives it.
    lookahead = lookahead_of(cut, scenario.net.wireless.latency)
    if args.json:
        payload = plan.to_dict()
        payload["cut_edges"] = [list(edge) for edge in cut]
        payload["lookahead_ms"] = lookahead
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return 0
    print(f"{spec.name}: {len(plan.shard_of)} nodes -> "
          f"{plan.n_shards} shards")
    for shard in range(plan.n_shards):
        brs = sorted(br for br, s in plan.subtree_shard.items() if s == shard)
        print(f"  shard {shard}: weight={plan.weights[shard]:4d}  "
              f"subtrees={', '.join(brs) if brs else '(empty)'}")
    print(f"  cut edges: {len(cut)}  lookahead: {lookahead}ms")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _spec(args)
    shard_counts = [int(k) for k in str(args.shards).split(",")]
    print(f"recording {spec.name} sequentially ...", flush=True)
    seq = record_spec(spec)
    print(f"  {seq.count} records")
    status = 0
    for k in shard_counts:
        print(f"recording {spec.name} with {k} shards ...", flush=True)
        result = run_sharded(spec, k, record=True)
        div = first_divergence(seq.lines, result.merged_lines or [])
        if div is None:
            print(f"  shards={k}: byte-identical "
                  f"({len(result.merged_lines or [])} records, "
                  f"{result.windows} windows, "
                  f"{sum(result.stalled_windows)} stalls)")
        else:
            status = EXIT_FAILED
            print(f"  shards={k}: DIVERGED at {div.describe()}")
    return status


# ----------------------------------------------------------------------
# live-diff
# ----------------------------------------------------------------------
def cmd_live_diff(args: argparse.Namespace) -> int:
    spec = _spec(args)
    tolerances = {key: value for key, value
                  in (("latency_rel", args.latency_rel),
                      ("rate_rel", args.rate_rel)) if value is not None}
    report = diff_spec(spec, fabric=args.fabric, time_scale=args.time_scale,
                       tolerances=tolerances or None)
    text = json.dumps(report, indent=2, sort_keys=True, default=list)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    elif not args.quiet:
        print(text)
    if not args.quiet:
        worst = min((g["agreement"] for g in report["groups"]), default=1.0)
        print(f"diff {spec.name}: envelopes "
              f"{sum(e['ok'] for e in report['envelopes'])}"
              f"/{len(report['envelopes'])} ok, "
              f"worst group agreement {worst:.3f}")
        for env in report["envelopes"]:
            flag = "ok " if env["ok"] else "FAIL"
            print(f"  [{flag}] {env['metric']}: sim={env['sim']:.3f} "
                  f"live={env['live']:.3f} (limit ±{env['limit']:.3f})")
        delta = (report.get("span_stages") or {}).get("delta")
        if delta:
            print("per-stage latency attribution (live vs sim):")
            print(render_stage_delta(delta, "live", "sim"))
    if not report["ok"]:
        print("FAIL: sim and live disagree beyond tolerance",
              file=sys.stderr)
        return EXIT_FAILED
    if not args.quiet:
        print("ok: sim and live agree within tolerance")
    return 0


# ----------------------------------------------------------------------
# fuzz / replay / diff
# ----------------------------------------------------------------------
def cmd_fuzz(args: argparse.Namespace) -> int:
    """A campaign is a sweep: the generator's points, the sweep runner,
    the campaign's suite as its check, the sweep's artifact."""
    points = campaign.fuzz_points(args.budget, args.seed, args.duration)
    check = campaign.campaign_suite
    results = run_sweep(points, jobs=SWEEP_JOBS,
                        progress=_progress if not args.quiet else None,
                        check=check)
    failed = [p for p, r in zip(points, results) if r.violations]
    print(f"\nfuzz: {len(points)} cases, {len(failed)} failed, "
          f"{sum(len(r.violations) for r in results)} total violations")
    _write_sweep_artifacts(results, {
        "command": "fuzz", "budget": args.budget, "base_seed": args.seed,
        "duration_ms": args.duration,
    }, args.out)
    if args.save_traces is not None and failed:
        # Traces are too big to capture speculatively for every passing
        # case: re-run each failing one with a recorder beside the suite.
        os.makedirs(args.save_traces, exist_ok=True)
        for point in failed:
            base = os.path.join(args.save_traces, point.spec.name)
            with open(base + ".spec.json", "w", encoding="utf-8") as fh:
                fh.write(point.spec.to_json() + "\n")
            with _recording(base + ".trace.jsonl") as recorder:
                run_point(point, recorder, check=check)
    return _report_check(results)


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
        return EXIT_FAILED
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
    return EXIT_FAILED


# ----------------------------------------------------------------------
# show-plan / validate-plan
# ----------------------------------------------------------------------
def _plan_of(source: str) -> FaultPlan:
    """The fault plan ``source`` names: a scenario's (a registry name or
    a spec file, through the resolver) or — the one file the resolver
    cannot read — a bare ``{"actions": [...]}`` plan."""
    if source not in registry.names() and os.path.isfile(source):
        data = _load_json(source)
        if "actions" in data:
            return FaultPlan.from_dict(data)
    return registry.resolve(source).faults


def cmd_show_plan(args: argparse.Namespace) -> int:
    plan = _plan_of(args.source)
    if not plan:
        print(f"{args.source}: empty fault plan")
    elif args.json:
        print(plan.to_json())
    else:
        print(f"{args.source}: {len(plan)} fault action(s)")
        for line in plan.describe():
            print("  " + line)
    return 0


def cmd_validate_plan(args: argparse.Namespace) -> int:
    _load_json(args.file)  # unreadable or not JSON: exit 2
    try:
        plan = _plan_of(args.file)
    except (ValueError, KeyError) as exc:
        print(f"INVALID: {exc}", file=sys.stderr)
        return EXIT_FAILED
    print(f"ok: {len(plan)} action(s)")
    return 0


# ----------------------------------------------------------------------
# ladder (scale rungs: exact counts and peak RSS)
# ----------------------------------------------------------------------
def _print_rung(r: RunResult) -> None:
    obs = r.obs
    line = (f"{r.name:6s} events={obs['engine']['events_processed']:9d} "
            f"deliveries={r.delivered:7d} wall={obs['wall_s']:7.3f}s  "
            f"peak_heap={obs['engine']['peak_heap']} "
            f"peak_rss={obs['peak_rss'] / (1 << 20):.0f}MiB")
    if r.violations is not None:
        line += ("  check=ok" if not r.violations
                 else f"  check={len(r.violations)} VIOLATIONS")
    print(line, flush=True)


def _rss_gate(artifact: Dict[str, Any], baseline_path: str) -> int:
    """Print the peak-RSS comparison; returns the exit code."""
    rows = rss_gate(artifact, _load_json(baseline_path))
    for ok, line in rows:
        print(f"  {'' if ok else 'FAIL '}{line}")
    failed = sum(not ok for ok, _ in rows)
    if failed:
        print(f"FAIL: {failed} of {len(rows)} rungs failed the peak-RSS "
              f"gate (limit +{RSS_GROWTH_LIMIT:.0%}) vs {baseline_path}")
        return EXIT_FAILED
    print(f"ok: peak RSS within +{RSS_GROWTH_LIMIT:.0%} of {baseline_path} "
          f"({len(rows)} rungs compared)")
    return 0


def cmd_ladder(args: argparse.Namespace) -> int:
    """Each rung is one observed run; its entry's ``obs`` section gets
    the process's peak RSS stamped in before ``--check``'s separate
    checked run, so monitors never inflate what is measured."""
    names = args.rungs.split(",") if args.rungs else DEFAULT_RUNGS
    rungs = [get_rung(n) for n in names]  # rejects a bad name up front
    if args.stream_trace:
        os.makedirs(args.stream_trace, exist_ok=True)
    results = []
    for rung in rungs:
        overrides: Dict[str, Any] = {"name": rung.name}
        if args.duration is not None:
            overrides["duration_ms"] = args.duration
        spec = rung_spec(rung).with_overrides(overrides)
        pops = node_counts(spec)
        print(f"[{rung.name}] nes={pops['nes']} mhs={pops['mhs']} "
              f"duration={spec.duration_ms:.0f}ms ...", flush=True)
        session = ObsSession(horizon_ms=spec.duration_ms, name=rung.name,
                             progress=args.progress)
        stream_path = (os.path.join(args.stream_trace,
                                    f"{rung.name}.jsonl.gz")
                       if args.stream_trace else None)
        with _recording(stream_path) as sink:
            result = run_point(spec, sink, session)
        obs = dict(session.report(), peak_rss=peak_rss_bytes())
        if sink is not None:
            obs.update(trace_path=stream_path, trace_records=sink.count)
        violations = run_point(spec, check=True).violations \
            if args.check else None
        result = replace(result, obs=obs, violations=violations)
        results.append(result)
        _print_rung(result)

    meta = {"command": "ladder", "rungs": [r.name for r in rungs],
            "python": platform.python_version(),
            "platform": platform.platform()}
    export_json(args.out, results, meta=meta, include_timing=True)
    print(f"wrote {args.out}")
    status = _rss_gate({"runs": [r.to_dict() for r in results]},
                       args.baseline) if args.baseline else 0
    violations = sum(len(r.violations or ()) for r in results)
    if violations:
        print(f"FAIL: --check found {violations} invariant violations")
        return EXIT_FAILED
    return status


# ----------------------------------------------------------------------
# summarize / top / timeline (readers of a run artifact's obs sections)
# ----------------------------------------------------------------------
def _obs_sections(path: str):
    """Every ``obs`` section in the run artifact at ``path`` (``run``
    / ``sweep --obs --out``), each under a ``run_id:`` heading when
    there are several."""
    doc = _load_json(path)
    runs = [run for run in (doc.get("runs") if isinstance(doc, dict)
                            else None) or () if run.get("obs")]
    if not runs:
        raise ValueError(f"{path}: no run entry carries an obs section "
                         f"(write one with run/sweep --obs --out)")
    for run in runs:
        if len(runs) > 1:
            print(f"{run['run_id']}:")
        yield run["obs"]


def cmd_summarize(args: argparse.Namespace) -> int:
    for obs in _obs_sections(args.artifact):
        print(render_summary(obs, top=args.top))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    for obs in _obs_sections(args.artifact):
        rows = (obs.get("profiler") or {}).get("top") or []
        subs = obs.get("shards") or []
        if rows or not subs:
            print(render_top(rows, limit=args.n))
            continue
        # A sharded section carries one profiler per shard; wall times
        # are per-process, so no cross-shard re-ranking.
        for i, sub in enumerate(subs):
            print(f"shard {i}:")
            print(render_top((sub.get("profiler") or {}).get("top") or [],
                             limit=args.n))
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    for obs in _obs_sections(args.artifact):
        print(render_timeline(obs["timeline"], metrics=args.metric or (),
                              tail=args.tail))
    return 0


# ----------------------------------------------------------------------
# spans / critpath / export-trace (readers of SPANS_* and trace files)
# ----------------------------------------------------------------------
def _span_events(path: str) -> Tuple[List[tuple], str]:
    """A span-event stream (lines are JSON arrays: ``run --spans``) or a
    recorded trace (lines are JSON objects: coarse stages only — trace
    records carry no per-hop detail) -> (span events, display name)."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        first = fh.readline().lstrip()
    if first.startswith("["):
        return read_span_events(path), os.path.basename(path)
    with opener(path, "rt", encoding="utf-8") as fh:
        return events_from_trace(fh), os.path.basename(path)


def cmd_spans(args: argparse.Namespace) -> int:
    events, name = _span_events(args.input)
    spanset = assemble(events)
    comp = completeness(spanset)
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
    return EXIT_FAILED


def cmd_critpath(args: argparse.Namespace) -> int:
    if args.input.endswith(".json"):
        payload = _load_json(args.input)
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
    events, name = _span_events(args.input)
    print(render_critpath(critpath_summary(assemble(events)), name=name))
    return 0


def cmd_export_trace(args: argparse.Namespace) -> int:
    events, name = _span_events(args.input)
    out = args.out or f"TRACE_{name}.json"
    n = write_chrome_trace(out, assemble(events),
                           limit=args.limit if args.limit > 0 else None)
    print(f"wrote {out} ({n} trace events; open at "
          f"https://ui.perfetto.dev or chrome://tracing)")
    return 0


# ----------------------------------------------------------------------
# The parser
# ----------------------------------------------------------------------
def _add_run_args(p: argparse.ArgumentParser) -> None:
    """What ``run`` and its grid form ``sweep`` share."""
    _add_spec_args(p)
    p.add_argument("--reps", type=int, default=None,
                   help="replications per point (default: run 1, sweep 2)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: run 1 = serial, "
                        "sweep 2)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON artifact (one run entry per "
                        "run) here")
    p.add_argument("--csv", default=None, metavar="FILE",
                   help="write aggregate rows as CSV here")
    p.add_argument("--check", action="store_true",
                   help="attach the repro.validation monitor suite to "
                        "every run; exit 1 on any invariant violation")
    p.add_argument("--obs", action="store_true",
                   help="attach out-of-band telemetry to every run; its "
                        "obs section lands in --out's run entries")
    p.add_argument("--spans", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="attach causal span tracing to every run and "
                        "write SPANS_<run_id>.jsonl.gz + "
                        "CRITPATH_<run_id>.json to DIR (default: cwd)")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock times in the JSON artifact "
                        "(makes it non-reproducible byte-for-byte)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress progress and summary lines")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RingNet reproduction: run a scenario on the "
                    "sequential, sharded or live backend, and read what "
                    "it wrote",
        epilog=EXIT_CODES,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        return p

    add("list", cmd_list, "show the scenario registry and fault plans")

    p = add("run", cmd_run, "run one scenario (sim, --shards K or --live)")
    _add_run_args(p)
    p.add_argument("--shards", type=int, default=None, metavar="K",
                   help="run on K worker processes (the space-parallel "
                        "backend)")
    p.add_argument("--live", choices=tuple(FABRICS), default=None,
                   help="run on the wall-clock asyncio backend over this "
                        "fabric")
    p.add_argument("--time-scale", type=float, default=None,
                   help="--live: wall seconds per logical second "
                        "(default 1.0 = real time)")
    p.add_argument("--max-lag-ms", type=float, default=None, metavar="MS",
                   help="--live: lag SLO; when any callback ran more than "
                        "MS logical ms behind its deadline, mark the "
                        f"report overloaded and exit {EXIT_OVERLOADED}")
    p.add_argument("--record", default=None, metavar="FILE",
                   help="write the run's canonical trace (JSONL, .gz by "
                        "name) for replay / diff")
    p.add_argument("--rate", type=float, default=None,
                   help="--spans: keep this fraction of messages, "
                        "deterministically (default 1.0)")

    p = add("sweep", cmd_sweep, "run a parameter grid")
    _add_run_args(p)
    p.add_argument("--param", action="append", metavar="KEY=V1,V2,...",
                   help="sweep axis, repeatable; defaults to the "
                        "scenario's default sweep")
    p.set_defaults(out="results.json")

    p = add("partition", cmd_partition, "show the shard plan")
    _add_spec_args(p)
    p.add_argument("--shards", type=int, default=2, metavar="K")
    p.add_argument("--json", action="store_true",
                   help="dump the full plan as JSON")

    p = add("compare", cmd_compare,
            "assert sharded trace == sequential trace")
    _add_spec_args(p)
    p.add_argument("--shards", default="2", metavar="K[,K2,...]",
                   help="shard counts to verify (default 2)")

    p = add("live-diff", cmd_live_diff, "sim-vs-live differential harness")
    _add_spec_args(p)
    p.add_argument("--fabric", choices=tuple(FABRICS), default="queue")
    p.add_argument("--time-scale", type=float, default=1.0,
                   help="wall seconds per logical second (default 1.0)")
    p.add_argument("--latency-rel", type=float, default=None,
                   help="relative latency tolerance band")
    p.add_argument("--rate-rel", type=float, default=None,
                   help="relative goodput/sent-rate tolerance band")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON report here")
    p.add_argument("--quiet", action="store_true")

    p = add("fuzz", cmd_fuzz, "randomized conformance campaign")
    p.add_argument("--budget", type=int, default=20,
                   help="number of random scenarios (default 20)")
    p.add_argument("--duration", type=float, default=3_000.0,
                   metavar="MS", help="per-scenario duration_ms")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign base seed (default 0)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the JSON campaign report here")
    p.add_argument("--save-traces", default=None, metavar="DIR",
                   help="save spec + trace JSONL for failing cases")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-case progress lines")

    p = add("replay", cmd_replay, "replay a trace through the monitors")
    p.add_argument("file", help="JSONL trace stream (run --record)")
    # Validated choices: a typo here would silently select the reduced
    # (orderless) monitor set and report a dirty trace as clean.
    p.add_argument("--system", default="ringnet", choices=SYSTEMS,
                   help="system the trace came from (selects monitors)")

    p = add("diff", cmd_diff, "first divergence of two traces")
    p.add_argument("left")
    p.add_argument("right")

    p = add("show-plan", cmd_show_plan,
            "render a fault plan as a timeline")
    p.add_argument("source", help="registry scenario name, spec file or "
                                  "bare-plan JSON file")
    p.add_argument("--json", action="store_true",
                   help="print the canonical JSON instead")

    p = add("validate-plan", cmd_validate_plan,
            "check a fault plan/spec JSON file")
    p.add_argument("file", help="JSON file (bare plan or full spec)")

    p = add("ladder", cmd_ladder,
            "scale rungs: exact counts and peak RSS")
    p.add_argument("--rungs", default=None, metavar="NAMES",
                   help=f"comma-separated subset of {','.join(rung_names())}"
                        f" (default: {','.join(DEFAULT_RUNGS)})")
    p.add_argument("--duration", type=float, default=None, metavar="MS",
                   help="override every selected rung's pinned duration "
                        "(truncated smoke runs)")
    p.add_argument("--check", action="store_true",
                   help="also run once with the validation monitor suite "
                        "attached; exit 1 on violations")
    p.add_argument("--progress", action="store_true",
                   help="heartbeat lines every ~2 wall seconds (obs hook)")
    p.add_argument("--stream-trace", default=None, metavar="DIR",
                   help="stream every rung's full trace to "
                        "DIR/<rung>.jsonl.gz (windowed gzip JSONL)")
    p.add_argument("--out", default="BENCH_ladder.json", metavar="FILE",
                   help="run artifact path, one entry per rung "
                        "(default: %(default)s in cwd)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="gate each measured rung's obs.peak_rss against "
                        "this ladder artifact; exit 1 on growth or "
                        "nothing to compare")

    obs_input = "run artifact written with --obs --out"
    p = add("summarize", cmd_summarize,
            "digest every obs section of a run artifact")
    p.add_argument("artifact", help=obs_input)
    p.add_argument("--top", type=int, default=5,
                   help="profiler rows to include (default 5)")

    p = add("top", cmd_top, "dispatch cost centers, heaviest first")
    p.add_argument("artifact", help=obs_input)
    p.add_argument("-n", type=int, default=10,
                   help="rows to show (default 10)")

    p = add("timeline", cmd_timeline, "tabulate a per-window timeline")
    p.add_argument("artifact", help=obs_input)
    p.add_argument("--metric", action="append", metavar="NAME",
                   help="add a per-window counter/kind/gauge column, "
                        "repeatable")
    p.add_argument("--tail", type=int, default=0,
                   help="show only the last N windows")

    span_input = ("SPANS_*.jsonl[.gz] span stream (run --spans) or "
                  "recorded trace *.jsonl[.gz] (run --record)")
    p = add("spans", cmd_spans,
            "assemble per-message span trees and check completeness")
    p.add_argument("input", help=span_input)

    p = add("critpath", cmd_critpath,
            "per-stage latency attribution")
    p.add_argument("input", help=span_input + ", CRITPATH_*.json, or a "
                                              "live-diff report")

    p = add("export-trace", cmd_export_trace,
            "Chrome-trace/Perfetto JSON export")
    p.add_argument("input", help=span_input)
    p.add_argument("--out", default=None, metavar="FILE",
                   help="output path (default TRACE_<name>.json)")
    p.add_argument("--limit", type=int, default=200,
                   help="max message spans to export (default 200; "
                        "0 = all)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream reader (e.g. ``| head``) closed the pipe; the
        # conventional quiet exit, not an error of the command.
        sys.stderr.close()
        return 0
    except OSError as exc:
        print(f"error: {exc.strerror or exc}: {exc.filename}"
              if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        # Registry, spec and flag-combination errors carry user-facing
        # messages; show them without a traceback.
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
