"""Machine-readable run results, cross-replication aggregation, export.

One simulation run produces a :class:`RunResult`; :func:`aggregate`
groups results by sweep point and reduces every scalar metric to
mean / sample std / 95% CI half-width across replications.  Exports are
deterministic: sorted JSON keys, stable row order, and (by default) no
wall-clock fields — so two runs of the same sweep with the same root
seed produce **byte-identical** artifacts.

All arithmetic here is pure python (``math.fsum``), both to avoid a
numpy dependency in the CLI and because fsum's result is independent of
summation order — replication order never perturbs an aggregate.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Scalar RunResult fields reduced across replications.
SCALAR_METRICS = (
    "sent", "delivered", "goodput", "sent_rate", "min_goodput",
    "order_violations", "retransmissions", "handoffs", "tombstones",
    "members", "peak_buffer",
)

#: Keys of the nested latency summary, reduced as ``latency_<key>``.
LATENCY_KEYS = ("mean", "p50", "p95", "p99", "max")

#: z for a 95% normal confidence interval.
_Z95 = 1.96


@dataclass
class RunResult:
    """Everything one run reports, as plain data."""

    run_id: str = ""
    name: str = ""
    system: str = "ringnet"
    params: Dict[str, Any] = field(default_factory=dict)
    point_index: int = 0
    replication: int = 0
    seed: int = 0
    duration_ms: float = 0.0
    warmup_ms: float = 0.0

    sent: int = 0
    delivered: int = 0
    goodput: float = 0.0          # mean per-MH delivery rate (msg/s)
    sent_rate: float = 0.0        # aggregate source rate (msg/s)
    min_goodput: float = 0.0      # slowest MH's delivery rate (msg/s)
    latency: Dict[str, float] = field(default_factory=dict)
    order_checked: bool = True
    order_violations: int = 0
    retransmissions: int = 0
    handoffs: int = 0
    tombstones: int = 0
    members: int = 0
    peak_buffer: int = 0          # max per-node WQ+MQ occupancy

    wall_time_s: float = 0.0      # excluded from deterministic exports

    #: Invariant violations from a ``--check`` run (None = not checked).
    #: Omitted from dict/JSON forms when None so unchecked artifacts
    #: stay byte-identical to pre-validation ones.
    violations: Optional[List[str]] = None
    #: What only one backend has, omitted when None like ``violations``:
    #: a wall-clock run's fabric, load generator, loop lag and wire
    #: counts (``live``), a sharded run's coordination counters
    #: (``shard``).  Both carry wall-clock numbers.
    live: Optional[Dict[str, Any]] = None
    shard: Optional[Dict[str, Any]] = None
    #: Out-of-band telemetry of an observed run (``--obs``), omitted when
    #: None: :meth:`~repro.obs.session.ObsSession.report` — engine
    #: counters, registry snapshot, profiler, per-window ``timeline``
    #: rows — or what a sharded or live run assembles in its place.
    #: Carries wall-clock numbers.
    obs: Optional[Dict[str, Any]] = None

    def to_dict(self, include_timing: bool = True) -> Dict[str, Any]:
        data = asdict(self)
        if not include_timing:
            data.pop("wall_time_s")
        for key in ("violations", "live", "shard", "obs"):
            if data[key] is None:
                data.pop(key)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        return cls(**dict(data))


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _mean_std_ci(values: Sequence[float]) -> Dict[str, float]:
    n = len(values)
    mean = math.fsum(values) / n
    if n > 1:
        var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
        std = math.sqrt(var)
    else:
        std = 0.0
    return {"mean": mean, "std": std, "ci95": _Z95 * std / math.sqrt(n)}


def _scalars(result: RunResult) -> Dict[str, float]:
    out = {m: float(getattr(result, m)) for m in SCALAR_METRICS}
    for key in LATENCY_KEYS:
        out[f"latency_{key}"] = float(result.latency.get(key, 0.0))
    return out


def aggregate(results: Iterable[RunResult]) -> List[Dict[str, Any]]:
    """Reduce results to one row per sweep point.

    Rows come back ordered by ``point_index`` (then name/system for
    stability when several sweeps are mixed); each carries the point's
    params, the replication count, and ``{"mean", "std", "ci95"}`` per
    metric.
    """
    groups: Dict[Any, List[RunResult]] = {}
    for r in results:
        key = (r.point_index, r.name, r.system,
               json.dumps(r.params, sort_keys=True, default=str))
        groups.setdefault(key, []).append(r)

    rows: List[Dict[str, Any]] = []
    for key in sorted(groups, key=lambda k: (k[0], k[1], k[2], k[3])):
        runs = sorted(groups[key], key=lambda r: r.replication)
        metrics = {
            name: _mean_std_ci([_scalars(r)[name] for r in runs])
            for name in sorted(_scalars(runs[0]))
        }
        rows.append({
            "point_index": runs[0].point_index,
            "name": runs[0].name,
            "system": runs[0].system,
            "params": dict(runs[0].params),
            "n": len(runs),
            "seeds": [r.seed for r in runs],
            "metrics": metrics,
        })
    return rows


# ----------------------------------------------------------------------
# Export
# ----------------------------------------------------------------------
def to_artifact(
    results: Sequence[RunResult],
    aggregates: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    include_timing: bool = False,
) -> Dict[str, Any]:
    """The full result document (runs + aggregates + metadata)."""
    return {
        "schema": "repro.experiments/v1",
        "meta": dict(meta or {}),
        "n_runs": len(results),
        "runs": [r.to_dict(include_timing=include_timing) for r in results],
        "aggregates": aggregate(results) if aggregates is None else aggregates,
    }


def export_json(
    path: str,
    results: Sequence[RunResult],
    aggregates: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    include_timing: bool = False,
) -> None:
    """Write the artifact as deterministic JSON (sorted keys, ``\\n`` EOF)."""
    doc = to_artifact(results, aggregates, meta, include_timing)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def export_csv(path: str, aggregates: List[Dict[str, Any]]) -> None:
    """Flatten aggregate rows to CSV (one row per sweep point).

    Columns: identity, ``param:<axis>`` per sweep axis, then
    ``<metric>_mean`` / ``_std`` / ``_ci95`` in sorted metric order.
    """
    param_keys = sorted({k for row in aggregates for k in row["params"]})
    metric_keys = sorted({m for row in aggregates for m in row["metrics"]})
    header = (["point_index", "name", "system", "n"]
              + [f"param:{k}" for k in param_keys]
              + [f"{m}_{s}" for m in metric_keys
                 for s in ("mean", "std", "ci95")])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in aggregates:
            record: List[Any] = [row["point_index"], row["name"],
                                 row["system"], row["n"]]
            record += [row["params"].get(k, "") for k in param_keys]
            for m in metric_keys:
                stats = row["metrics"].get(m, {})
                record += [stats.get("mean", ""), stats.get("std", ""),
                           stats.get("ci95", "")]
            writer.writerow(record)
