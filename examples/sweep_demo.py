#!/usr/bin/env python3
"""Sweep demo: a 2-parameter grid, replicated, aggregated, exported.

Expands the ``quickstart`` scenario over hierarchy width × source rate
(2 × 3 = 6 points, 2 replications each), runs the 12 simulations
through the experiment runner, and writes a machine-readable JSON
artifact with per-point mean/std/95%-CI — the workflow every paper
figure in this repo is moving onto.

The same sweep from the command line::

    python -m repro sweep quickstart \\
        --param hierarchy.n_br=3,5 --param workload.rate_per_sec=10,20,40 \\
        --reps 2 --jobs 4 --out sweep_demo.json

Run:  python examples/sweep_demo.py
"""

import os

from repro.experiments import aggregate, expand_grid, export_json, registry, run_sweep
from repro.metrics import format_table


def main() -> None:
    duration = float(os.environ.get("REPRO_EXAMPLE_DURATION_MS", 6_000))
    out = os.environ.get("REPRO_SWEEP_OUT", "sweep_demo.json")

    base = registry.get("quickstart", duration_ms=duration,
                        warmup_ms=duration / 3)

    points = expand_grid(
        base,
        sweep={
            "hierarchy.n_br": [3, 5],
            "workload.rate_per_sec": [10.0, 20.0, 40.0],
        },
        replications=2,
    )
    print(f"{len(points)} runs ({len(points) // 2} points x 2 "
          f"replications), {duration:.0f} ms each")

    results = run_sweep(points, jobs=2)
    aggs = aggregate(results)

    rows = [{
        "n_br": a["params"]["hierarchy.n_br"],
        "rate": a["params"]["workload.rate_per_sec"],
        "goodput (msg/s)": round(a["metrics"]["goodput"]["mean"], 2),
        "+-ci95": round(a["metrics"]["goodput"]["ci95"], 3),
        "p50 (ms)": round(a["metrics"]["latency_p50"]["mean"], 1),
        "p99 (ms)": round(a["metrics"]["latency_p99"]["mean"], 1),
        "violations": int(a["metrics"]["order_violations"]["mean"]),
    } for a in aggs]
    print(format_table(rows))

    export_json(out, results, aggs,
                meta={"example": "sweep_demo", "root_seed": base.seed})
    print(f"\nwrote {out} — identical bytes on every rerun "
          f"(same root seed).")


# The guard is load-bearing: the parallel runner's workers re-import
# __main__ under the spawn start method (macOS/Windows).
if __name__ == "__main__":
    main()
