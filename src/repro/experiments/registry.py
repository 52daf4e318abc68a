"""Named scenario-spec library.

Every entry is a factory producing a fresh :class:`ExperimentSpec`
(callers can mutate or override freely), plus a one-line description and
an optional *default sweep* — the parameter grid ``python -m repro
sweep <name>`` expands when the user gives no axes of their own.

This registry supersedes the ad-hoc builders that used to accrete in
``workloads/scenarios.py``: a scenario here is data, so it can be
listed, swept, serialized, and run identically from the CLI, a test, or
a worker process.  Being data, a scenario need not be registered at
all: :func:`resolve` takes the path of a spec file (``to_json`` output,
e.g. a failure ``fuzz --save-traces`` saved) wherever it takes a name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                    HierarchyShape, MobilitySpec,
                                    OpenWorldSpec, WorkloadSpec)
from repro.faults.plan import (TOKEN_HOLDER, Crash, Degrade, FaultPlan, Flap,
                               LossBurst, Partition)


@dataclass(frozen=True)
class ScenarioEntry:
    """One registered scenario: factory + description + default sweep."""

    name: str
    description: str
    factory: Callable[[], ExperimentSpec]
    default_sweep: Optional[Dict[str, List[Any]]] = None


_REGISTRY: Dict[str, ScenarioEntry] = {}


def register(name: str, description: str,
             default_sweep: Optional[Dict[str, List[Any]]] = None):
    """Decorator registering a spec factory under ``name``."""
    def wrap(factory: Callable[[], ExperimentSpec]):
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioEntry(name, description, factory,
                                        default_sweep)
        return factory
    return wrap


def names() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def entry(name: str) -> ScenarioEntry:
    """The full registry entry for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(names())}"
        ) from None


def get(name: str, **overrides: Any) -> ExperimentSpec:
    """A fresh spec for ``name``, with optional dotted-path overrides
    (e.g. ``get("quickstart", **{"workload.s": 4})``)."""
    spec = entry(name).factory()
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec


def _base(name: str) -> ExperimentSpec:
    """A fresh spec for a registered name or, failing that, the
    :class:`ExperimentSpec` JSON file ``name`` is the path of."""
    if name not in _REGISTRY and (name.endswith(".json")
                                  or os.path.isfile(name)):
        with open(name, "r", encoding="utf-8") as fh:
            return ExperimentSpec.from_json(fh.read())
    return entry(name).factory()


def resolve(name: str, duration_ms: Optional[float] = None,
            seed: Optional[int] = None,
            overrides: Optional[Mapping[str, Any]] = None) -> ExperimentSpec:
    """The spec a command line names: ``NAME|FILE --duration --seed --set``.

    The one resolver behind every CLI.  A scenario is a registered name
    or a spec file (``ExperimentSpec.to_json`` output — what ``fuzz
    --save-traces`` writes); a registered name wins, a missing file is
    an ``OSError`` and an invalid one a ``ValueError``.  ``overrides``
    are the ``--set`` dotted-path pairs; ``duration_ms`` and ``seed``
    win over them.  A duration that no longer leaves room for the
    scenario's warm-up zeroes the warm-up, unless ``overrides`` sets one
    itself.
    """
    base = _base(name)
    merged = dict(overrides or {})
    if duration_ms is not None:
        merged["duration_ms"] = duration_ms
        if base.warmup_ms >= duration_ms and "warmup_ms" not in merged:
            merged["warmup_ms"] = 0.0
    if seed is not None:
        merged["seed"] = seed
    return base.with_overrides(merged) if merged else base


def default_sweep(name: str) -> Optional[Dict[str, List[Any]]]:
    """The scenario's default parameter grid, or None (a spec file has
    none)."""
    sweep = _REGISTRY[name].default_sweep if name in _REGISTRY else None
    return dict(sweep) if sweep is not None else None


# ----------------------------------------------------------------------
# The library
# ----------------------------------------------------------------------
@register("quickstart",
          "Figure-1 hierarchy, two steady senders, static audience",
          default_sweep={"hierarchy.n_br": [3, 4, 5],
                         "workload.rate_per_sec": [10.0, 20.0]})
def _quickstart() -> ExperimentSpec:
    return ExperimentSpec(
        name="quickstart",
        description="the paper's Figure-1 shape with two CBR senders",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        duration_ms=10_000.0, warmup_ms=1_000.0, seed=7,
    )


@register("conference",
          "§1 motivating workload: video conference, static audience")
def _conference() -> ExperimentSpec:
    return ExperimentSpec(
        name="conference",
        description="few steady senders, every member sees one ordered "
                    "stream",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=3),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        duration_ms=10_000.0, warmup_ms=1_000.0, seed=1,
    )


@register("campus",
          "conference traffic plus random-walk roaming over the AP grid")
def _campus() -> ExperimentSpec:
    return ExperimentSpec(
        name="campus",
        description="MHs random-walk across cells, handing off on every "
                    "crossing",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=3, aps_per_ag=3,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=10.0),
        mobility=MobilitySpec(enabled=True, model="random_walk",
                              mean_dwell_ms=2_000.0),
        duration_ms=15_000.0, warmup_ms=2_000.0, seed=1,
    )


@register("handoff_storm",
          "sprinting MHs over an AP corridor; MMA reservations stressed",
          default_sweep={"protocol.smooth_handoff": [True, False]})
def _handoff_storm() -> ExperimentSpec:
    return ExperimentSpec(
        name="handoff_storm",
        description="short dwell + directional walk: a handoff every "
                    "~600 ms per MH, dynamic AP paths",
        hierarchy=HierarchyShape(n_br=2, ags_per_br=1, aps_per_ag=6,
                                 mhs_per_ap=1),
        protocol={"static_ap_paths": False, "smooth_handoff": True,
                  "reservation_ttl": 5_000.0},
        workload=WorkloadSpec(s=1, rate_per_sec=25.0),
        mobility=MobilitySpec(enabled=True, model="directional",
                              mean_dwell_ms=600.0, persistence=0.95),
        duration_ms=20_000.0, warmup_ms=2_000.0, seed=5,
    )


@register("churn_heavy",
          "aggressive join/leave churn against a steady stream")
def _churn_heavy() -> ExperimentSpec:
    return ExperimentSpec(
        name="churn_heavy",
        description="a membership event every ~200 ms (E5's regime, "
                    "turned up)",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        churn=ChurnSpec(enabled=True, mean_interval_ms=200.0,
                        min_members=2),
        duration_ms=12_000.0, warmup_ms=2_000.0, seed=3,
    )


@register("deep_hierarchy",
          "§3 sub-tier nesting: three levels of AG rings below each BR")
def _deep_hierarchy() -> ExperimentSpec:
    return ExperimentSpec(
        name="deep_hierarchy",
        description="scaling by adding tiers instead of widening rings",
        hierarchy=HierarchyShape(n_br=2, ring_size=2, depth=3,
                                 aps_per_ag=1, mhs_per_ap=1),
        workload=WorkloadSpec(s=1, rate_per_sec=15.0),
        duration_ms=8_000.0, warmup_ms=2_000.0, seed=1202,
    )


@register("failure_drill",
          "token-holder crash, AG-leader crash: recovery under fire")
def _failure_drill() -> ExperimentSpec:
    return ExperimentSpec(
        name="failure_drill",
        description="scheduled crashes exercise token regeneration and "
                    "leader re-election mid-stream",
        hierarchy=HierarchyShape(n_br=4, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=1, rate_per_sec=20.0),
        faults=FaultPlan(actions=[
            Crash(at_ms=3_000.0, target=TOKEN_HOLDER),
            Crash(at_ms=6_000.0, target="ag:1.0"),
        ]),
        duration_ms=15_000.0, warmup_ms=1_000.0, seed=13,
    )


@register("ring_vs_baselines",
          "same workload across ringnet / unordered / single-ring",
          default_sweep={"system": ["ringnet", "unordered", "single_ring"]})
def _ring_vs_baselines() -> ExperimentSpec:
    return ExperimentSpec(
        name="ring_vs_baselines",
        description="distribution-vehicle comparison on one fixed shape",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=1, rate_per_sec=15.0),
        duration_ms=10_000.0, warmup_ms=2_500.0, seed=606,
    )


@register("hotspot",
          "one dominant sender, a tail of slow commenters (skewed s×λ)")
def _hotspot() -> ExperimentSpec:
    return ExperimentSpec(
        name="hotspot",
        description="a 60 msg/s hot source plus two 10 msg/s sources: "
                    "ordering fairness under skew",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(rates=[60.0, 10.0, 10.0]),
        duration_ms=10_000.0, warmup_ms=2_000.0, seed=17,
    )


@register("bursty_sources",
          "Poisson arrivals: bursty traffic instead of Theorem 5.1's CBR")
def _bursty_sources() -> ExperimentSpec:
    return ExperimentSpec(
        name="bursty_sources",
        description="exponential inter-message gaps stress WQ/MQ sizing "
                    "beyond the CBR analysis",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=3, rate_per_sec=30.0, pattern="poisson"),
        duration_ms=10_000.0, warmup_ms=2_000.0, seed=23,
    )


@register("split_brain",
          "partition isolates the token holder's subtree, then heals")
def _split_brain() -> ExperimentSpec:
    return ExperimentSpec(
        name="split_brain",
        description="the paper's worst backbone fault: whichever BR "
                    "holds the OrderingToken is cut off (with its whole "
                    "subtree) mid-stream, then the partition heals",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        # The token must survive the outage in retransmission (no
        # maintenance event fires for a partition, so a transit give-up
        # would orphan it): 12 retries x 25 ms rto > the 250 ms cut.
        protocol={"max_retries": 12},
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Partition(at_ms=1_000.0, heal_at_ms=1_250.0,
                      groups=[["@token_holder_subtree"], ["@rest"]]),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=41,
    )


@register("asymmetric_partition",
          "one-way partition: a BR subtree can hear but not speak")
def _asymmetric_partition() -> ExperimentSpec:
    return ExperimentSpec(
        name="asymmetric_partition",
        description="traffic out of br:1's subtree is dropped while the "
                    "reverse direction still flows — the classic "
                    "one-way radio/backhaul failure",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        protocol={"max_retries": 12},
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Partition(at_ms=1_000.0, heal_at_ms=1_250.0,
                      direction="a_to_b",
                      groups=[["br:1", "ag:1.*", "ap:1.*", "mh:1.*"],
                              ["@rest"]]),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=43,
    )


@register("flapping_backbone",
          "a top-ring link flaps up/down every 160 ms for 1.4 s")
def _flapping_backbone() -> ExperimentSpec:
    return ExperimentSpec(
        name="flapping_backbone",
        description="periodic 80 ms outages on the br:0<->br:1 token "
                    "path: every pass risks a retransmission, none may "
                    "be lost",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Flap(at_ms=800.0, until_ms=2_200.0, link=["br:0", "br:1"],
                 period_ms=160.0, duty=0.5),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=47,
    )


@register("gilbert_elliott_access",
          "correlated loss bursts on every access link (GE channel)")
def _gilbert_elliott_access() -> ExperimentSpec:
    return ExperimentSpec(
        name="gilbert_elliott_access",
        description="two-state Gilbert-Elliott wireless: ~17% of each "
                    "sender's transmissions fall in bad-state bursts of "
                    "mean length 4 instead of i.i.d. loss",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            LossBurst(at_ms=500.0, until_ms=2_300.0,
                      links=[["ap:*", "mh:*"]],
                      p_gb=0.05, p_bg=0.25, loss_good=0.0, loss_bad=0.9),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=53,
    )


@register("degraded_wan",
          "backbone ring links run 4x slower and 5% lossy for a window")
def _degraded_wan() -> ExperimentSpec:
    return ExperimentSpec(
        name="degraded_wan",
        description="a congested WAN window: every BR<->BR link gets "
                    "4x latency and 5% loss, stretching T_order without "
                    "breaking it",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Degrade(at_ms=800.0, until_ms=2_000.0,
                    links=[["br:*", "br:*"]],
                    loss=0.05, latency_factor=4.0),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=59,
    )


@register("partition_during_handoff_storm",
          "an AP pair is cut off exactly while MHs sprint across it")
def _partition_during_handoff_storm() -> ExperimentSpec:
    return ExperimentSpec(
        name="partition_during_handoff_storm",
        description="the handoff_storm corridor with a 250 ms partition "
                    "of two APs mid-storm: registrations and smooth-"
                    "handoff reservations must survive the outage",
        hierarchy=HierarchyShape(n_br=2, ags_per_br=1, aps_per_ag=4,
                                 mhs_per_ap=1),
        protocol={"static_ap_paths": False, "smooth_handoff": True,
                  "reservation_ttl": 5_000.0, "max_retries": 12},
        workload=WorkloadSpec(s=1, rate_per_sec=20.0),
        mobility=MobilitySpec(enabled=True, model="directional",
                              mean_dwell_ms=600.0, persistence=0.95),
        faults=FaultPlan(actions=[
            Partition(at_ms=1_200.0, heal_at_ms=1_450.0,
                      groups=[["ap:0.0.0", "ap:0.0.1"], ["@rest"]]),
        ]),
        duration_ms=8_000.0, warmup_ms=500.0, seed=61,
    )


@register("rolling_ap_brownout",
          "overlapping degradation windows roll across the AP sites")
def _rolling_ap_brownout() -> ExperimentSpec:
    return ExperimentSpec(
        name="rolling_ap_brownout",
        description="each BR's access links brown out (30% loss, 2x "
                    "latency) in overlapping 800 ms windows — a rolling "
                    "power event across sites",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Degrade(at_ms=600.0, until_ms=1_400.0,
                    links=[["ap:0.*", "mh:0.*"]],
                    loss=0.30, latency_factor=2.0),
            Degrade(at_ms=1_000.0, until_ms=1_800.0,
                    links=[["ap:1.*", "mh:1.*"]],
                    loss=0.30, latency_factor=2.0),
            Degrade(at_ms=1_400.0, until_ms=2_200.0,
                    links=[["ap:2.*", "mh:2.*"]],
                    loss=0.30, latency_factor=2.0),
        ]),
        duration_ms=6_000.0, warmup_ms=500.0, seed=67,
    )


@register("correlated_ap_failures",
          "both APs of one AG crash at once (correlated edge outage)")
def _correlated_ap_failures() -> ExperimentSpec:
    return ExperimentSpec(
        name="correlated_ap_failures",
        description="a whole AG's AP population fails simultaneously — "
                    "a power/backhaul outage at one site",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        faults=FaultPlan(actions=[
            Crash(at_ms=5_000.0, target="ap:0.0.0"),
            Crash(at_ms=5_000.0, target="ap:0.0.1"),
        ]),
        duration_ms=12_000.0, warmup_ms=2_000.0, seed=29,
    )


@register("open_world",
          "Poisson session arrivals over a lazy catchment; Pareto flows")
def _open_world() -> ExperimentSpec:
    return ExperimentSpec(
        name="open_world",
        description="an un-materialized per-AP catchment, heavy-tailed "
                    "sessions arriving and leaving, heavy-tailed flow "
                    "sizes, MQ retention pinned to the Theorem 5.1 "
                    "bound — the metro population as traffic",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1, idle_per_ap=8),
        workload=WorkloadSpec(
            s=2, rate_per_sec=25.0, pattern="flows",
            flows={"arrivals_per_sec": 5.0, "size_mean": 6.0,
                   "alpha": 1.5}),
        openworld=OpenWorldSpec(enabled=True, arrivals_per_sec=25.0,
                                mean_session_ms=800.0,
                                max_session_ms=4_000.0),
        bound_retention=True,
        duration_ms=8_000.0, warmup_ms=1_000.0, seed=71,
    )


@register("open_world_mobile",
          "open-world arrivals that roam: session churn + handoff "
          "mobility over a mostly idle catchment")
def _open_world_mobile() -> ExperimentSpec:
    return ExperimentSpec(
        name="open_world_mobile",
        description="the xxl catchment shape in miniature: each AP "
                    "fronts a mostly idle catchment (1 resident + 24 "
                    "registered slots), Poisson session arrivals "
                    "materialize lazily and random-walk across cells "
                    "while in session, stopping where they stand on "
                    "departure — open-world membership and frequent "
                    "handoff exercised together",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1, idle_per_ap=24),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        mobility=MobilitySpec(enabled=True, model="random_walk",
                              mean_dwell_ms=600.0),
        openworld=OpenWorldSpec(enabled=True, arrivals_per_sec=20.0,
                                mean_session_ms=1_200.0,
                                max_session_ms=5_000.0),
        bound_retention=True,
        duration_ms=8_000.0, warmup_ms=1_000.0, seed=83,
    )


@register("flash_crowd",
          "a 6x flash-crowd rate spike ramps, holds, and decays")
def _flash_crowd() -> ExperimentSpec:
    return ExperimentSpec(
        name="flash_crowd",
        description="steady CBR until t=800 ms, then a 6x spike over "
                    "300 ms, held 600 ms: WQ/MQ and the token ring "
                    "absorb the surge and drain back",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(
            s=2, rate_per_sec=15.0,
            curve={"kind": "flash", "at_ms": 800.0, "ramp_ms": 300.0,
                   "peak_factor": 6.0, "hold_ms": 600.0,
                   "decay_ms": 400.0}),
        duration_ms=8_000.0, warmup_ms=500.0, seed=73,
    )


@register("diurnal",
          "day/night sinusoidal load cycle, compressed to 2 s periods")
def _diurnal() -> ExperimentSpec:
    return ExperimentSpec(
        name="diurnal",
        description="CBR senders modulated by 1 + 0.6*sin(2*pi*t/2s): "
                    "sustained swing between 0.4x and 1.6x load",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(
            s=2, rate_per_sec=20.0,
            curve={"kind": "diurnal", "period_ms": 2_000.0,
                   "amplitude": 0.6}),
        duration_ms=8_000.0, warmup_ms=1_000.0, seed=79,
    )
