"""Metric names, units and directions — the table ``BENCHMARK.json`` mirrors.

The self-test asserts the two agree, so a metric cannot be renamed in
one place only.  Host time and simulated time are told apart in every
name and unit (``wall`` / ``s`` vs ``sim_s`` / ``sim_ms``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: ``(name, unit, better, bound, same_seed_bound)`` — two bounds, because
#: they answer two questions.
#:
#: ``bound`` goes into ``BENCHMARK.json``: the share of the parent's
#: median by which the metric may get worse *across seeds*.  The driver
#: refuses a benchmark whose spread (IQR / median) over ten runs at ten
#: different seeds exceeds it on any workload, and asks for three times
#: that spread, so it is sized on the widest ten-seed spread measured on
#: the 2-core container (README, "Measured noise floor"): host noise
#: longer than a run for the wall metrics, and how far the seed moves
#: the counts (churn changes the member set) for the exact ones.
#:
#: ``same_seed_bound`` is ISSUE 12's bound, for two sets of runs of one
#: seed (``python -m perfbench aa``, or ``run`` on a parent and a
#: change): there the inputs are identical, the metrics in
#: ``EXACT_END_TO_END`` must agree to the last digit on the sim backend,
#: and a row that cannot meet its bound is a reported breach.
END_TO_END: Tuple[Tuple[str, str, str, float, float], ...] = (
    ("setup_s", "s", "lower", 0.25, 0.10),
    ("wall_s_per_sim_s", "s/sim_s", "lower", 0.25, 0.10),
    ("deliveries_per_wall_s", "1/s", "higher", 0.25, 0.10),
    ("events_per_delivery", "count", "lower", 0.15, 0.005),
    ("peak_rss_mib", "MiB", "lower", 0.05, 0.05),
    ("latency_p50_sim_ms", "sim_ms", "lower", 0.25, 0.02),
    ("latency_p95_sim_ms", "sim_ms", "lower", 0.25, 0.02),
)

#: End-to-end metrics that must repeat to the last digit at a fixed
#: seed on the sim backend (live interleaves with asyncio and gets the
#: ``same_seed_bound`` instead).
EXACT_END_TO_END = ("events_per_delivery", "latency_p50_sim_ms",
                    "latency_p95_sim_ms")

#: Same-seed bound of the one *timed* per-layer metric ``aa`` compares
#: (ROADMAP item 4 is decided on it); exact per-layer counts are compared
#: by equality, the other timed ones are reported only.
SAME_SEED_LAYER_BOUNDS: Dict[str, float] = {"shard.speedup_vs_seq": 0.10}

#: ``(name, unit, better, kind)`` with kind one of ``exact`` (a
#: deterministic count, compared by equality), ``share`` (self time over
#: traced wall), ``probe`` (isolated micro-run) or ``timed``.  A value of
#: 0 on a workload means the layer does no work there.
PER_LAYER: Tuple[Tuple[str, str, str, str], ...] = (
    ("engine.events_per_delivery", "count", "lower", "exact"),
    ("engine.schedules_per_delivery", "count", "lower", "exact"),
    ("engine.cancels_per_schedule", "ratio", "lower", "exact"),
    ("engine.peak_heap", "count", "lower", "exact"),
    ("engine.compactions", "count", "lower", "exact"),
    ("engine.self_share", "ratio", "lower", "share"),
    ("engine.null_event_us", "us", "lower", "probe"),
    ("fabric.sends_per_delivery", "count", "lower", "exact"),
    ("fabric.drop_share", "ratio", "lower", "exact"),
    ("fabric.self_share", "ratio", "lower", "share"),
    ("fabric.hop_us", "us", "lower", "probe"),
    ("transport.segments_per_delivery", "count", "lower", "exact"),
    ("transport.retransmit_share", "ratio", "lower", "exact"),
    ("transport.duplicate_share", "ratio", "lower", "exact"),
    ("transport.gave_up", "count", "lower", "exact"),
    ("transport.self_share", "ratio", "lower", "share"),
    ("transport.roundtrip_us", "us", "lower", "probe"),
    ("core.self_share", "ratio", "lower", "share"),
    ("core.mq_ops_per_delivery", "count", "lower", "exact"),
    ("core.token_snapshots_per_sim_s", "1/sim_s", "lower", "exact"),
    ("core.token_holds_per_sim_s", "1/sim_s", "higher", "exact"),
    ("core.gap_requests", "count", "lower", "exact"),
    ("core.handoffs", "count", "lower", "exact"),
    ("core.tombstones", "count", "lower", "exact"),
    ("core.buffer_peak", "count", "lower", "exact"),
    ("trace.emits_per_delivery", "count", "lower", "exact"),
    ("trace.self_share", "ratio", "lower", "share"),
    ("trace.emit_nosub_ns", "ns", "lower", "probe"),
    ("drivers.self_share", "ratio", "lower", "share"),
    ("runner.build_s", "s", "lower", "timed"),
    ("runner.warmup_s", "s", "lower", "timed"),
    ("runner.join_events", "count", "lower", "exact"),
    ("shard.wall_s_per_sim_s", "s/sim_s", "lower", "timed"),
    ("shard.setup_s", "s", "lower", "timed"),
    ("shard.speedup_vs_seq", "ratio", "higher", "timed"),
    ("shard.barrier_wait_share", "ratio", "lower", "timed"),
    ("shard.in_shard_slowdown", "ratio", "lower", "timed"),
    ("shard.windows", "count", "lower", "exact"),
    ("shard.window_stall_share", "ratio", "lower", "exact"),
    ("shard.exports_per_window", "count", "lower", "exact"),
    ("shard.event_balance", "ratio", "higher", "exact"),
    ("shard.rebalances", "count", "lower", "exact"),
    ("live.callbacks_per_wall_s", "1/s", "higher", "timed"),
    ("live.loop_self_share", "ratio", "lower", "share"),
    ("live.lag_p50_ms", "ms", "lower", "timed"),
    ("live.lag_p99_ms", "ms", "lower", "timed"),
    ("live.lag_max_ms", "ms", "lower", "timed"),
    ("live.latency_wall_p50_ms", "ms", "lower", "timed"),
    ("live.latency_wall_p99_ms", "ms", "lower", "timed"),
    ("live.paced_cpu_share", "ratio", "lower", "timed"),
    ("obs.session_tax_ratio", "ratio", "lower", "timed"),
    ("obs.spans_tax_ratio", "ratio", "lower", "timed"),
    ("interp.py_calls_per_delivery", "count", "lower", "exact"),
    ("harness.trace_overhead_ratio", "ratio", "lower", "timed"),
    ("harness.slice_spread", "ratio", "lower", "timed"),
)

PER_LAYER_UNITS: Dict[str, str] = {n: u for n, u, _, _ in PER_LAYER}


def exact_per_layer() -> List[str]:
    return [n for n, _, _, kind in PER_LAYER if kind == "exact"]


def benchmark_manifest(workloads, run_seconds: int) -> Dict[str, object]:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "-m", "perfbench", "one"],
        "paths": ["perfbench"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd}
                       for n, u, b, bd, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }
