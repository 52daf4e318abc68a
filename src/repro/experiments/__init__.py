"""Declarative experiments: specs, sweeps, parallel runs, results.

This subsystem turns the repo's hand-written benchmark scripts into
data-driven experiment campaigns:

* :mod:`~repro.experiments.spec` — :class:`ExperimentSpec`, a plain-data
  description of one run (hierarchy, protocol knobs, workload, mobility,
  churn, fault plan, duration); round-trips through dicts and JSON.
* :mod:`~repro.experiments.grid` — :func:`expand_grid` expands a dotted
  parameter grid × replications into :class:`RunPoint`\\ s with
  deterministically derived per-run seeds.
* :mod:`~repro.experiments.runner` — :func:`build_scenario` materializes
  a spec; :func:`run_point` executes one run with the standard collector
  set; :func:`run_sweep` fans points out to worker processes (serial
  fallback with ``jobs=1``) with identical results either way.
* :mod:`~repro.experiments.results` — :class:`RunResult`,
  :func:`aggregate` (mean/std/95% CI per sweep point), and deterministic
  JSON/CSV export.
* :mod:`~repro.experiments.registry` — the named scenario library
  (``quickstart``, ``handoff_storm``, ``churn_heavy``, ...).
* ``python -m repro list | run | sweep`` — the same from a shell
  (:mod:`repro.__main__`).

Quickstart
----------
>>> from repro.experiments import registry, expand_grid, run_sweep, aggregate
>>> base = registry.get("quickstart", duration_ms=3000.0, warmup_ms=500.0)
>>> points = expand_grid(base, {"workload.rate_per_sec": [10.0, 20.0]},
...                      replications=2)
>>> results = run_sweep(points, jobs=1)
>>> rows = aggregate(results)
>>> [round(r["metrics"]["goodput"]["mean"], 1) for r in rows]  # doctest: +SKIP
[10.0, 20.0]
"""

from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                    HierarchyShape, MobilitySpec,
                                    OpenWorldSpec, WorkloadSpec)
from repro.experiments.grid import RunPoint, expand_grid
from repro.experiments.results import (RunResult, aggregate, export_csv,
                                       export_json, to_artifact)
from repro.experiments.runner import build_scenario, run_point, run_sweep
from repro.experiments import registry

__all__ = [
    "ExperimentSpec", "HierarchyShape", "WorkloadSpec", "MobilitySpec",
    "ChurnSpec", "OpenWorldSpec",
    "RunPoint", "expand_grid",
    "RunResult", "aggregate", "export_json", "export_csv", "to_artifact",
    "build_scenario", "run_point", "run_sweep",
    "registry",
]
