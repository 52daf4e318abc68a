"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one complete simulation run — the
hierarchy shape, the protocol tunables, the traffic workload, mobility,
churn, and the fault plan (crashes and network faults) — as plain data.
Specs round-trip through dicts and JSON, so a sweep definition can live
in a file, travel to a worker process, or be diffed between two
experiment campaigns.

The spec layer builds nothing (and imports no numpy): building a
runnable scenario from a spec is the job of
:mod:`repro.experiments.runner`.  :class:`HierarchyShape` lives next to
its builder in :mod:`repro.topology.builder` and is re-exported here.
The only protocol knowledge here is the set of valid
:class:`~repro.core.config.ProtocolConfig` field names, checked lazily
when :meth:`ExperimentSpec.protocol_config` is called.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional

from repro.faults.plan import FaultPlan
from repro.topology.builder import HierarchyShape

#: Systems the runner knows how to build.  ``ringnet`` is the paper's
#: protocol; the others are the comparison baselines.
SYSTEMS = ("ringnet", "unordered", "single_ring")

#: Traffic arrival patterns understood by MulticastSource.  ``flows``
#: is the open-world pattern: Poisson flow arrivals, each flow a
#: bounded-Pareto burst of back-to-back messages (psim's TrafficGen
#: shape).
PATTERNS = ("cbr", "poisson", "flows")

#: Time-varying source-rate curves (spec-level; resolved by the runner
#: into a deterministic rate function of simulated time).
CURVE_KINDS = ("constant", "diurnal", "flash")

#: Mobility models the runner can instantiate.
MOBILITY_MODELS = ("random_walk", "directional")

def _check_number(path: str, old: Any, value: Any) -> None:
    """Where the spec holds a number, ``value`` must be one (no bool)."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if number(old) and not number(value):
        raise ValueError(f"{path}: expected a number, got {value!r}")


def _check_no_unknown_keys(cls: type, data: Mapping[str, Any]) -> None:
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys {unknown}; valid keys: "
            f"{sorted(known)}"
        )


@dataclass
class WorkloadSpec:
    """The s × λ traffic of the §5 analysis, with optional skew.

    ``rates`` (when given) lists an explicit per-source rate for each of
    the sources — the hotspot/heterogeneous case; it overrides ``s`` and
    ``rate_per_sec``.  ``pattern`` is ``cbr`` (Theorem 5.1's workload),
    ``poisson`` (bursty arrivals with the same mean), or ``flows``
    (open-world: Poisson flow arrivals, bounded-Pareto flow sizes).

    ``curve`` makes the rate time-varying: a dict with ``kind`` from
    :data:`CURVE_KINDS` plus kind-specific knobs (see
    :class:`repro.workloads.generators.RateCurve`).  ``flows`` (the
    dict) parameterizes the flow pattern (see
    :class:`repro.core.source.FlowProfile`); ignored for other patterns.
    """

    s: int = 2
    rate_per_sec: float = 20.0
    pattern: str = "cbr"
    rates: Optional[List[float]] = None
    stagger_ms: float = 3.0
    curve: Optional[Dict[str, Any]] = None
    flows: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"pattern must be one of {PATTERNS}")
        if self.rates is None and self.s < 1:
            raise ValueError("need at least one source")
        if self.curve is not None:
            kind = self.curve.get("kind", "constant")
            if kind not in CURVE_KINDS:
                raise ValueError(f"curve kind must be one of {CURVE_KINDS}")

    @property
    def source_rates(self) -> List[float]:
        """The concrete per-source rate list this workload describes."""
        if self.rates is not None:
            return [float(r) for r in self.rates]
        return [float(self.rate_per_sec)] * int(self.s)


@dataclass
class MobilitySpec:
    """Cell-grid roaming knobs (only meaningful for the ringnet system)."""

    enabled: bool = False
    model: str = "random_walk"
    mean_dwell_ms: float = 2000.0
    persistence: float = 0.8
    stay_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.model not in MOBILITY_MODELS:
            raise ValueError(f"model must be one of {MOBILITY_MODELS}")


@dataclass
class ChurnSpec:
    """Join/leave churn knobs (see :class:`repro.workloads.ChurnDriver`)."""

    enabled: bool = False
    mean_interval_ms: float = 500.0
    min_members: int = 1


@dataclass
class OpenWorldSpec:
    """Open-world population dynamics over the lazy catchment.

    When enabled, the runner registers ``hierarchy.idle_per_ap`` idle
    MHs per AP as an un-materialized catchment and an
    :class:`~repro.workloads.openworld.OpenWorldDriver` activates them
    as Poisson session arrivals; each session lives a bounded-Pareto
    (heavy-tailed) duration and then leaves.  The paper's metropolitan
    population, as traffic rather than as pre-built objects.
    """

    enabled: bool = False
    #: Session (member) arrivals per second across the whole network.
    arrivals_per_sec: float = 50.0
    #: Mean session length; actual lengths are bounded Pareto.
    mean_session_ms: float = 1500.0
    #: Pareto tail index for session lengths (1 < alpha; smaller =
    #: heavier tail).
    alpha: float = 1.5
    #: Hard cap on one session length.
    max_session_ms: float = 60_000.0

    def __post_init__(self) -> None:
        if self.enabled:
            if self.arrivals_per_sec <= 0:
                raise ValueError("arrivals_per_sec must be positive")
            if self.mean_session_ms <= 0:
                raise ValueError("mean_session_ms must be positive")
            if self.alpha <= 1.0:
                raise ValueError("alpha must be > 1 (finite mean)")


#: The plain-data sections of an :class:`ExperimentSpec`, by field name.
_SECTIONS = {"hierarchy": HierarchyShape, "workload": WorkloadSpec,
             "mobility": MobilitySpec, "churn": ChurnSpec,
             "openworld": OpenWorldSpec}


@dataclass
class ExperimentSpec:
    """A complete, serializable description of one simulation run."""

    name: str = "experiment"
    description: str = ""
    system: str = "ringnet"
    hierarchy: HierarchyShape = field(default_factory=HierarchyShape)
    protocol: Dict[str, Any] = field(default_factory=dict)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    mobility: MobilitySpec = field(default_factory=MobilitySpec)
    churn: ChurnSpec = field(default_factory=ChurnSpec)
    openworld: OpenWorldSpec = field(default_factory=OpenWorldSpec)
    faults: FaultPlan = field(default_factory=FaultPlan)
    duration_ms: float = 10_000.0
    warmup_ms: float = 2_000.0
    seed: int = 1
    #: When True the runner replaces ``protocol.mq_retention`` with the
    #: Theorem 5.1 MQ bound computed by :mod:`repro.analysis.bounds` for
    #: this spec's shape and workload — delivered history past the
    #: theorem's sufficiency bound is spilled instead of retained.
    #: Opt-in: it changes pruning behaviour, hence trace bytes.
    bound_retention: bool = False

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(f"system must be one of {SYSTEMS}")
        if self.duration_ms <= 0:
            raise ValueError("duration_ms must be positive")
        if not 0 <= self.warmup_ms < self.duration_ms:
            raise ValueError("need 0 <= warmup_ms < duration_ms")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-ready, stable key order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild from :meth:`to_dict` output (partial dicts allowed:
        omitted sections keep their defaults)."""
        _check_no_unknown_keys(cls, data)
        kwargs: Dict[str, Any] = dict(data)
        for name, section in _SECTIONS.items():
            if name in kwargs:
                _check_no_unknown_keys(section, kwargs[name])
                kwargs[name] = section(**kwargs[name])
        if "faults" in kwargs:
            kwargs["faults"] = FaultPlan.from_dict(kwargs["faults"])
        if "protocol" in kwargs:
            kwargs["protocol"] = dict(kwargs["protocol"])
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """JSON form (sorted keys, so equal specs serialize identically)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def copy(self) -> "ExperimentSpec":
        """An independent deep copy."""
        return copy.deepcopy(self)

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ExperimentSpec":
        """A new spec with dotted-path overrides applied.

        Paths address nested sections: ``{"hierarchy.n_br": 5,
        "workload.rate_per_sec": 50.0, "protocol.tau": 2.0,
        "system": "unordered"}``.  The original spec is not modified;
        values are validated by reconstructing the dataclasses.
        """
        data = self.to_dict()
        for path, value in overrides.items():
            node: Any = data
            parts = path.split(".")
            for part in parts[:-1]:
                if isinstance(node, list):
                    node = node[int(part)]
                elif part in node:
                    node = node[part]
                else:
                    raise KeyError(f"no such spec section {part!r} "
                                   f"(in override {path!r})")
                if not isinstance(node, (dict, list)):
                    raise KeyError(f"cannot descend into scalar {part!r} "
                                   f"(in override {path!r})")
            leaf = parts[-1]
            if isinstance(node, list):
                leaf = int(leaf)
            # `protocol` is an open dict (any ProtocolConfig field);
            # everywhere else the key must already exist.
            elif leaf not in node and parts[:-1] != ["protocol"]:
                raise KeyError(f"unknown spec field {path!r}")
            else:
                _check_number(path, node.get(leaf), value)
            node[leaf] = value
        return type(self).from_dict(data)

    def protocol_config(self):
        """The :class:`~repro.core.config.ProtocolConfig` this spec's
        ``protocol`` overrides describe (defaults elsewhere)."""
        from repro.core.config import ProtocolConfig  # late: keep spec.py light
        valid = {f.name: f.default for f in fields(ProtocolConfig)}
        unknown = sorted(set(self.protocol) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown ProtocolConfig fields {unknown}; valid: "
                f"{sorted(valid)}"
            )
        for name, value in self.protocol.items():
            _check_number(f"protocol.{name}", valid[name], value)
        return ProtocolConfig(**self.protocol)
