"""The untraced measure pass, the checked pass and the end-to-end metrics.

*Noise-floor wall.*  Every repeat of a seeded run executes the identical
event sequence, so the timed window is cut into fixed simulated-time
slices, each repeat is timed slice by slice from a fresh build, and the
reported wall is ``sum over slices of (min over repeats)``: a burst of
host noise has to hit the same slice in *every* repeat to reach the
number.

The checked pass is a separate run with the validation monitors
attached (``run_point(spec, check=True)`` on sim, a monitored run of
the saturated loop on live); it feeds the latency metrics and the
failure count and is never timed into a wall metric.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Any, Dict, List, Sequence

from repro.bench.measure import peak_rss_bytes
from repro.experiments.runner import build_scenario, run_point
from repro.live import NetworkBuilder
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

from perfbench.workloads import Workload

#: Repeats every measure pass makes even when the time budget is short.
MIN_REPEATS = 3

#: Wall seconds per logical second of the saturated live loop: far
#: below anything the loop can sustain, so it never sleeps.
SATURATED_SCALE = 0.001


# ----------------------------------------------------------------------
# Estimators
# ----------------------------------------------------------------------
def slice_min_sum(walls: Sequence[Sequence[float]]) -> float:
    """``sum_i min_r walls[r][i]`` — the noise-floor wall of a window.

    ``walls[r][i]`` is the wall time of slice ``i`` in repeat ``r``;
    every repeat must have timed the same slices.
    """
    if not walls:
        raise ValueError("need at least one repeat")
    n = len(walls[0])
    if any(len(w) != n for w in walls):
        raise ValueError("repeats timed different slice counts: "
                         f"{[len(w) for w in walls]}")
    return sum(min(w[i] for w in walls) for i in range(n))


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


# ----------------------------------------------------------------------
# Measure pass: each backend times ONE repeat from a fresh build
# ----------------------------------------------------------------------
def _run_slices(sim, edges: List[float]) -> List[float]:
    """Step ``sim`` to each edge in turn; wall seconds of every step."""
    walls = []
    prev = time.perf_counter()
    for edge in edges:
        sim.run(until=edge)
        now = time.perf_counter()
        walls.append(now - prev)
        prev = now
    return walls


def sim_setup(spec, warm_edges: List[float]):
    """Build, start and warm a sim scenario up to the last warm-up edge.

    Returns ``(scenario, build_s, warm-up slice walls)``; ``start()`` is
    timed into the first warm-up slice.
    """
    t_start = time.perf_counter()
    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=False))
    scenario = build_scenario(spec, sim=sim)
    t_built = time.perf_counter()
    scenario.start()
    start_s = time.perf_counter() - t_built
    warm = _run_slices(sim, warm_edges)
    warm[0] += start_s
    return scenario, t_built - t_start, warm


def _repeat_sim(wl: Workload, spec, edges: List[float],
                attach) -> Dict[str, Any]:
    scenario, build_s, warm = sim_setup(spec, wl.warmup_edges())
    if attach is not None:
        attach(scenario)
    sim, net = scenario.sim, scenario.net
    ev0, dl0 = sim.events_processed, net.total_app_deliveries()
    walls = _run_slices(sim, edges)
    return {"walls": walls, "build": build_s, "warm": warm,
            "events": sim.events_processed - ev0,
            "deliveries": net.total_app_deliveries() - dl0,
            "join_events": ev0}


def live_run(spec, edges: List[float], time_scale: float = SATURATED_SCALE,
             monitors: bool = False, on_built=None):
    """One live run with probe callbacks at the logical times ``edges``.

    Each probe stamps ``perf_counter`` and reads the loop's callback
    and delivery counters.  Returns ``(run, build_s, walls, counts)``:
    ``walls`` are the wall times between consecutive marks — run start,
    every probe, ``run()`` returning (so the last one is the tail:
    horizon callbacks and service teardown) — and ``counts[i]`` is
    ``(callbacks, deliveries)`` seen by probe ``i``.  ``on_built(run)``
    may attach observers before the loop starts.
    """
    t_start = time.perf_counter()
    run = NetworkBuilder(spec, fabric="queue", time_scale=time_scale,
                         monitors=monitors).build()
    build_s = time.perf_counter() - t_start
    runtime, net = run.runtime, run.scenario.net
    stamps: List[float] = []
    counts: List[tuple] = []

    def probe() -> None:
        stamps.append(time.perf_counter())
        counts.append((runtime.events_processed, net.total_app_deliveries()))

    for edge in edges:
        runtime.schedule_at(edge, probe, owner=None)
    if on_built is not None:
        on_built(run)
    stamps.insert(0, time.perf_counter())
    run.run()
    stamps.append(time.perf_counter())
    return run, build_s, [b - a for a, b in zip(stamps, stamps[1:])], counts


def _repeat_live(wl: Workload, spec, edges: List[float],
                 attach) -> Dict[str, Any]:
    # The probe at ``t0`` splits the warm-up off, as sim_setup does.
    warm_edges = wl.warmup_edges()
    n_warm = len(warm_edges)
    run, build_s, walls, counts = live_run(spec, warm_edges + edges,
                                           on_built=attach)
    ev0, dl0 = counts[n_warm - 1]
    return {"walls": walls[n_warm:], "build": build_s,
            "warm": walls[:n_warm],
            # A probe reads the counter before it is counted itself;
            # probes are callbacks too, and not the program's.
            "events": (run.runtime.events_processed - ev0
                       - 1 - len(edges)),
            "deliveries": run.report()["delivered"] - dl0,
            "join_events": ev0}


_REPEAT = {"sim": _repeat_sim, "live": _repeat_live}


def measure(wl: Workload, seed: int, seconds: float, quick: bool = False,
            attach=None) -> Dict[str, Any]:
    """Run the untraced measure pass for about ``seconds`` seconds.

    Repeats (each from a fresh build, after a ``gc.collect()``, GC left
    on) until the next one would overrun the budget, at least
    ``MIN_REPEATS`` times.  ``attach(scenario)`` (sim) / ``attach(run)``
    (live) hooks an observer in after set-up, before the timed window —
    how the obs tax is measured.
    """
    spec = wl.spec(seed, quick)
    start, end = wl.window(quick)
    edges = wl.slice_edges(quick)
    one_repeat = _REPEAT[wl.backend]
    repeats: List[Dict[str, Any]] = []
    t_begin = time.perf_counter()
    while True:
        gc.collect()
        repeats.append(one_repeat(wl, spec, edges, attach))
        elapsed = time.perf_counter() - t_begin
        if (len(repeats) >= MIN_REPEATS
                and elapsed + elapsed / len(repeats) > seconds):
            break
    whole = [sum(r["walls"]) for r in repeats]
    # Set-up is sliced and floored like the window: one set-up per
    # repeat, the noise floor of them all.
    build_s = min(r["build"] for r in repeats)
    warmup_s = slice_min_sum([r["warm"] for r in repeats])
    counts = {(r["events"], r["deliveries"], r["join_events"])
              for r in repeats}
    first = repeats[0]
    return {
        "sim_s": (end - start) / 1000.0,
        "repeats": len(repeats),
        "wall_s": slice_min_sum([r["walls"] for r in repeats]),
        "whole_wall_median_s": statistics.median(whole),
        "whole_wall_iqr_share": iqr_share(whole),
        "whole_wall_min_s": min(whole),
        "setup_s": build_s + warmup_s,
        "setup_median_s": statistics.median(
            r["build"] + sum(r["warm"]) for r in repeats),
        "build_s": build_s,
        "warmup_s": warmup_s,
        "events": first["events"],
        "deliveries": first["deliveries"],
        "join_events": first["join_events"],
        # Every repeat of a seed must do the identical work; live runs
        # interleave with the asyncio scheduler and are exempt.
        "repeatable": len(counts) == 1 or wl.backend == "live",
        "rss_mib": peak_rss_bytes() / 2 ** 20,
    }


# ----------------------------------------------------------------------
# Checked pass
# ----------------------------------------------------------------------
def _check_sim(spec) -> Dict[str, Any]:
    result = run_point(spec, check=True)
    return {"latency": result.latency,
            "attempted": result.delivered + result.tombstones,
            "failed": result.tombstones + len(result.violations),
            "violations": result.violations}


def _check_live(spec) -> Dict[str, Any]:
    tombstones: List[Any] = []      # messages declared lost to a member
    run, _, _, _ = live_run(
        spec, [], monitors=True,
        on_built=lambda r: r.runtime.trace.subscribe("mh.tombstone",
                                                     tombstones.append))
    report = run.report()
    # With monitors attached the order checker is one of them, so
    # report()["order_violations"] is already inside the monitor list.
    violations = list(report["monitor_violations"])
    return {"latency": report["latency"],
            "attempted": report["delivered"] + len(tombstones),
            "failed": len(tombstones) + len(violations),
            "violations": violations}


_CHECK = {"sim": _check_sim, "live": _check_live}


def check(wl: Workload, seed: int, quick: bool = False) -> Dict[str, Any]:
    """Run the checked pass: latency summary and the failure count."""
    return _CHECK[wl.backend](wl.spec(seed, quick))


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(measured: Dict[str, Any],
               checked: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """The ``BENCHMARK.json`` end-to-end metrics of one workload run."""
    wall = measured["wall_s"]
    lat = checked["latency"]
    return {
        "setup_s": {"value": measured["setup_s"], "unit": "s"},
        "wall_s_per_sim_s": {"value": wall / measured["sim_s"],
                             "unit": "s/sim_s"},
        "deliveries_per_wall_s": {"value": measured["deliveries"] / wall,
                                  "unit": "1/s"},
        "events_per_delivery": {
            "value": measured["events"] / measured["deliveries"],
            "unit": "count"},
        "peak_rss_mib": {"value": measured["rss_mib"], "unit": "MiB"},
        "latency_p50_sim_ms": {"value": lat["p50"], "unit": "sim_ms"},
        "latency_p95_sim_ms": {"value": lat["p95"], "unit": "sim_ms"},
    }
