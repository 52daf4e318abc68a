"""Measure one scale rung: exact work counts and peak resident memory.

How fast a pinned workload delivers is ``perfbench``'s question.  What
is measured here is what a single run can state exactly: the engine's
own counters (``events_processed``, ``peak_heap``, ``compactions``),
the built population, and the process's peak RSS — the number the
10^5/10^6-MH rungs exist for.  ``wall_s``/``build_s`` are recorded for
orientation only; nothing compares them.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.runner import observed_scenario, run_point
from repro.experiments.spec import ExperimentSpec
from repro.obs.session import ObsSession
from repro.sim.engine import Simulator
from repro.sim.trace import StreamingTraceSink, TraceBus

#: Schema tag written into every report.
BENCH_SCHEMA = "repro.bench/v1"

#: Allowed fractional peak-RSS growth over the baseline.  Wide, because
#: RSS moves with allocator and interpreter build; memory tracking the
#: declared instead of the active population is multiples, not percents.
RSS_GROWTH_LIMIT = 0.50


def peak_rss_bytes() -> int:
    """This process's peak resident set size, in bytes.

    Linux reads ``VmHWM`` from ``/proc/self/status``; elsewhere (or in
    restricted containers) it falls back to ``resource.ru_maxrss``.
    Both are process-lifetime high-water marks, so a result carries the
    peak "by the end of this measurement" and in an ascending ladder
    the largest rung dominates.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def calibrate(events: int = 50_000) -> float:
    """Events/sec of a null workload: the engine spinning no-op events.

    The host's raw engine throughput with zero protocol work;
    ``perfbench`` reports its reciprocal as ``engine.null_event_us``.
    """
    sim = Simulator(seed=0, trace=TraceBus(counting=False))

    def tick() -> None:
        if sim.events_processed < events:
            sim.schedule(1.0, tick)

    sim.schedule(1.0, tick)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    return sim.events_processed / wall if wall > 0 else 0.0


def _populations(net) -> Dict[str, int]:
    # ``nodes`` = NE + MH, matching repro.bench.ladder.node_counts;
    # traffic sources are reported apart.  MHs are the declared count:
    # materialized plus the remainder of the lazy catchment.
    nes = len(getattr(net, "nes", ()))
    mhs = (len(getattr(net, "mobile_hosts", ()))
           + getattr(net, "catchment_idle", 0))
    sources = len(getattr(net, "sources", ()))
    return {"nes": nes, "mhs": mhs, "sources": sources, "nodes": nes + mhs}


def measure_spec(spec: ExperimentSpec, check: bool = False,
                 progress: bool = False,
                 stream_path: Optional[str] = None) -> Dict[str, Any]:
    """Build and run one spec once; returns its report entry.

    The trace bus runs with counting off and no subscriber unless
    ``stream_path`` streams the full trace to that file (``.gz``
    compressed when the name says so).  ``progress=True`` emits
    wall-clock heartbeats through the obs hook.  ``check=True`` adds
    one *separate* run with the :mod:`repro.validation` suite attached
    and reports its violations.
    """
    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=False))
    sink = StreamingTraceSink(stream_path) if stream_path is not None \
        else None
    heartbeat = ObsSession(horizon_ms=spec.duration_ms, name=spec.name,
                           progress=True) if progress else None
    t0 = time.perf_counter()
    try:
        with observed_scenario(spec, sink, heartbeat, sim=sim) as scenario:
            t1 = time.perf_counter()
            scenario.run()
    finally:
        if sink is not None:
            sink.close()
    t2 = time.perf_counter()

    result = {
        "name": spec.name,
        "system": spec.system,
        "seed": spec.seed,
        "duration_ms": spec.duration_ms,
        **_populations(scenario.net),
        "events": sim.events_processed,
        "deliveries": scenario.net.total_app_deliveries(),
        # peak_heap is positive for any run that scheduled at all, so
        # compactions == 0 says "never needed", not "not measured".
        "peak_heap": sim.peak_heap,
        "compactions": sim.compactions,
        "peak_rss": peak_rss_bytes(),
        "build_s": round(t1 - t0, 6),
        "wall_s": round(t2 - t1, 6),
        "checked": check,
        "violations": [],
    }
    if sink is not None:
        result["trace_path"] = stream_path
        result["trace_records"] = sink.count
    if check:
        result["violations"] = run_point(spec, check=True).violations
    return result


def bench_report(results: Sequence[Mapping[str, Any]]) -> Dict[str, Any]:
    """Assemble the machine-readable ``BENCH_ladder.json`` payload."""
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "results": list(results),
    }


def _rss_by_name(report: Mapping[str, Any]) -> Dict[str, float]:
    results = report.get("results")
    if not isinstance(results, list):
        raise ValueError("not a bench report: missing 'results' list "
                         f"(schema={report.get('schema')!r})")
    return {str(e["name"]): float(e.get("peak_rss") or 0) for e in results}


def rss_gate(current: Mapping[str, Any],
             baseline: Mapping[str, Any]) -> List[Tuple[bool, str]]:
    """One ``(ok, line)`` per entry of ``current``, matched on ``name``.

    An entry fails when its ``peak_rss`` grew more than
    :data:`RSS_GROWTH_LIMIT` over the baseline's, or when there is
    nothing to compare (no baseline entry of that name, no positive
    ``peak_rss`` on a side).  Shrinkage and unmeasured baseline entries
    never fail.
    """
    base = _rss_by_name(baseline)
    mib = 1 << 20
    out: List[Tuple[bool, str]] = []
    for name, cur in _rss_by_name(current).items():
        if name not in base:
            out.append((False, f"{name}: no baseline entry to compare"))
        elif cur <= 0 or base[name] <= 0:
            side = "measured" if cur <= 0 else "baseline"
            out.append((False, f"{name}: no positive peak_rss on the "
                        f"{side} side"))
        else:
            growth = cur / base[name] - 1.0
            out.append((growth <= RSS_GROWTH_LIMIT,
                        f"{name} [peak_rss]: {cur / mib:,.1f} MiB vs "
                        f"baseline {base[name] / mib:,.1f} MiB "
                        f"({growth:+.1%})"))
    return out


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Write a report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
