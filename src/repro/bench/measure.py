"""Peak resident memory, its baseline gate, and the null-engine rate.

How fast a pinned workload delivers is ``perfbench``'s question.  A
ladder rung (``python -m repro ladder``) is one observed run whose
entry's ``obs`` section states what a single run can state exactly —
the engine's own counters (``events_processed``, ``peak_heap``,
``compactions``) — plus the process's peak RSS, stamped in by
:func:`peak_rss_bytes`: the number the 10^5/10^6-MH rungs exist for and
:func:`rss_gate` compares.  Wall times are there for orientation only;
nothing compares them.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Mapping, Tuple

from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

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


def _rss_by_name(artifact: Mapping[str, Any]) -> Dict[str, float]:
    runs = artifact.get("runs")
    if not isinstance(runs, list):
        raise ValueError("not a run artifact: missing 'runs' list "
                         f"(schema={artifact.get('schema')!r})")
    return {str(run["name"]): float((run.get("obs") or {}).get("peak_rss")
                                    or 0)
            for run in runs}


def rss_gate(current: Mapping[str, Any],
             baseline: Mapping[str, Any]) -> List[Tuple[bool, str]]:
    """One ``(ok, line)`` per run of the ``current`` ladder artifact,
    matched on ``name`` against ``baseline``'s runs.

    A run fails when its ``obs.peak_rss`` grew more than
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
