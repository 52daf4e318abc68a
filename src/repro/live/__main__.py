"""CLI for the live backend.

Usage::

    python -m repro.live run quickstart --fabric queue --time-scale 0.2
    python -m repro.live run quickstart --fabric udp --duration 1500
    python -m repro.live diff quickstart --out diff-report.json
    python -m repro.live udp-smoke

``run`` executes a registry scenario on the wall-clock backend with
validation monitors attached; ``diff`` runs the sim-vs-live
differential harness; ``udp-smoke`` is the loopback socket round-trip
check CI gates on.

``run`` exits 0 when clean, 1 on a monitor or ordering violation, 2 on
an unknown scenario or an invalid spec (``error: ...`` on stderr, as in
every other CLI) and, with ``--max-lag-ms MS``, 3 when the loop fell
further behind its schedule than that (the summary line then reads
``OVERLOADED``).

The ``REPRO_LIVE_DURATION_MS`` environment variable overrides every
duration (the CI hook, mirroring ``REPRO_EXAMPLE_DURATION_MS`` in the
examples); ``--duration`` wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from repro.experiments import registry

ENV_DURATION = "REPRO_LIVE_DURATION_MS"

#: ``run --max-lag-ms`` exit code: the loop missed its schedule.  Apart
#: from the violation exit (1) and argparse's usage exit (2).
EXIT_OVERLOADED = 3


def _spec(name: str, duration: Optional[float], seed: Optional[int]):
    env = os.environ.get(ENV_DURATION)
    if duration is None and env is not None:
        duration = float(env)
    return registry.resolve(name, duration, seed)


def _write_out(payload: dict, out: Optional[str], quiet: bool) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=list)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        if not quiet:
            print(f"report written to {out}")
    elif not quiet:
        print(text)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.live.builder import NetworkBuilder

    spec = _spec(args.scenario, args.duration, args.seed)
    builder = NetworkBuilder(spec, fabric=args.fabric,
                             time_scale=args.time_scale,
                             monitors=not args.no_monitors)
    run = builder.build()
    if not args.quiet:
        n_nodes = len(run.scenario.net.fabric.nodes)
        print(f"live run: {spec.name} fabric={args.fabric} "
              f"nodes={n_nodes} duration={spec.duration_ms:.0f}ms "
              f"time_scale={args.time_scale}")
    run.run()
    report = run.report()
    lag, limit = report["lag"], args.max_lag_ms
    overloaded = limit is not None and lag["max_lag_ms"] > limit
    if limit is not None:
        report["overloaded"] = overloaded
        report["max_lag_limit_ms"] = limit
    _write_out(report, args.out, args.quiet)
    if args.obs is not None:
        from repro.obs.session import write_artifacts
        paths = write_artifacts(run.obs_report(), [], out_dir=args.obs,
                                name=spec.name)
        if not args.quiet:
            print(f"obs report written to {paths['report']}")
    violations = report["monitor_violations"]
    order = report["order_violations"]
    if not args.quiet:
        print(f"delivered={report['delivered']} "
              f"goodput={report['goodput']:.2f}/s "
              f"p50={report['latency'].get('p50', 0.0):.1f}ms "
              f"max_lag={lag['max_lag_ms']:.1f}ms "
              f"callbacks/yield={lag['events'] / max(lag['yields'], 1):.1f}")
        for v in violations:
            print(f"VIOLATION: {v}", file=sys.stderr)
    if violations or order:
        print(f"FAIL: {len(violations)} monitor violation(s), "
              f"{order} order violation(s)", file=sys.stderr)
        return 1
    if overloaded:
        print(f"OVERLOADED: zero violations, but the loop ran "
              f"{lag['max_lag_ms']:.1f} logical ms behind its schedule "
              f"(limit {limit:g})", file=sys.stderr)
        return EXIT_OVERLOADED
    if not args.quiet:
        print("ok: zero violations")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from repro.live.diff import diff_spec

    spec = _spec(args.scenario, args.duration, args.seed)
    tolerances = {}
    if args.latency_rel is not None:
        tolerances["latency_rel"] = args.latency_rel
    if args.rate_rel is not None:
        tolerances["rate_rel"] = args.rate_rel
    report = diff_spec(spec, fabric=args.fabric,
                       time_scale=args.time_scale,
                       tolerances=tolerances or None)
    # The per-MH delivery logs make reports huge; groups carry the
    # verdicts, so the raw sequences stay out of the artifact.
    _write_out(report, args.out, args.quiet)
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
            from repro.obs.critpath import render_stage_delta
            print("per-stage latency attribution (live vs sim):")
            print(render_stage_delta(delta, "live", "sim"))
    if not report["ok"]:
        print("FAIL: sim and live disagree beyond tolerance",
              file=sys.stderr)
        return 1
    if not args.quiet:
        print("ok: sim and live agree within tolerance")
    return 0


def cmd_udp_smoke(args: argparse.Namespace) -> int:
    from repro.live.builder import NetworkBuilder

    spec = _spec("quickstart", args.duration, None)
    builder = NetworkBuilder(spec, fabric="udp",
                             time_scale=args.time_scale, monitors=False)
    run = builder.build()
    run.run()
    fabric = run.scenario.net.fabric
    delivered = run.scenario.net.total_app_deliveries()
    if not args.quiet:
        print(f"udp-smoke: {fabric.messages_delivered} fabric deliveries, "
              f"{delivered} app deliveries, "
              f"{fabric.bytes_on_wire} bytes on the wire, "
              f"{run.report()['order_violations']} order violations")
    if fabric.messages_delivered == 0 or delivered == 0:
        print("FAIL: no traffic crossed the loopback", file=sys.stderr)
        return 1
    if not args.quiet:
        print("ok: loopback UDP round trips verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.live",
        description="wall-clock asyncio backend for the protocol stack")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
        if scenario:
            p.add_argument("scenario", help="registry scenario name")
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--duration", type=float, default=None, metavar="MS",
                       help=f"override duration_ms (or set {ENV_DURATION})")
        p.add_argument("--time-scale", type=float, default=1.0,
                       help="wall seconds per logical second "
                            "(default 1.0 = real time)")
        p.add_argument("--out", default=None, metavar="FILE",
                       help="write the JSON report here")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("run", help="run a scenario live, with monitors")
    common(p)
    p.add_argument("--fabric", choices=("queue", "udp"), default="queue")
    p.add_argument("--no-monitors", action="store_true",
                   help="skip the validation monitor suite")
    p.add_argument("--max-lag-ms", type=float, default=None, metavar="MS",
                   help="lag SLO: when any callback ran more than MS "
                        "logical ms behind its deadline, mark the report "
                        f"overloaded and exit {EXIT_OVERLOADED}")
    p.add_argument("--obs", nargs="?", const=".", default=None,
                   metavar="DIR",
                   help="write an OBS_<name>.json run report (lag "
                        "accounting as gauges, protocol counters) to DIR "
                        "for python -m repro.obs summarize")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("diff", help="sim-vs-live differential harness")
    common(p)
    p.add_argument("--fabric", choices=("queue", "udp"), default="queue")
    p.add_argument("--latency-rel", type=float, default=None,
                   help="relative latency tolerance band")
    p.add_argument("--rate-rel", type=float, default=None,
                   help="relative goodput/sent-rate tolerance band")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("udp-smoke",
                       help="loopback UDP round-trip check (quickstart)")
    common(p, scenario=False)
    p.set_defaults(fn=cmd_udp_smoke)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
