"""The five pinned workloads.

Specs are literals on purpose — not registry or ladder look-ups — so a
change to ``repro.experiments.registry`` or ``repro.bench.ladder`` can
never silently move the benchmark.  Each workload takes the run's seed
(``--seed``) as ``ExperimentSpec.seed``, which drives every random
stream of the run (source phases, link jitter and loss, mobility,
churn); the same seed gives the same inputs and, on the sim backend,
the identical event sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                    HierarchyShape, MobilitySpec,
                                    WorkloadSpec)
from repro.faults.plan import Degrade, FaultPlan, LossBurst

#: The documented held-out seed: never used while sizing a change.
HELD_OUT_SEED = 14

#: Every wired link class of the hierarchy, for the ``Degrade`` overlay.
_WIRED_LINKS = [["br:*", "br:*"], ["br:*", "ag:*"], ["ag:*", "ag:*"],
                ["ag:*", "ap:*"]]


def _fanout_wide(seed: int, t0: float, t1: float) -> ExperimentSpec:
    # Ladder-``l`` shape: 6 BR x 4 AG x 6 AP x 6 MH = 174 NEs + 864 MHs.
    return ExperimentSpec(
        name="fanout_wide",
        hierarchy=HierarchyShape(n_br=6, ags_per_br=4, aps_per_ag=6,
                                 mhs_per_ap=6),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        duration_ms=t1, warmup_ms=t0, seed=seed)


def _token_small(seed: int, t0: float, t1: float) -> ExperimentSpec:
    # Ladder-``xs`` shape: 2 BR x 1 AG x 1 AP x 2 MH = 10 nodes.
    return ExperimentSpec(
        name="token_small",
        hierarchy=HierarchyShape(n_br=2, ags_per_br=1, aps_per_ag=1,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        duration_ms=t1, warmup_ms=t0, seed=seed)


def _campus_spec(name: str, seed: int, t0: float, t1: float,
                 **sections) -> ExperimentSpec:
    # 3 BR x 2 AG x 4 AP x 3 MH = 33 NEs + 72 MHs, bursty sources, churn.
    return ExperimentSpec(
        name=name,
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=4,
                                 mhs_per_ap=3),
        workload=WorkloadSpec(s=3, rate_per_sec=20.0, pattern="poisson"),
        churn=ChurnSpec(enabled=True, mean_interval_ms=400.0),
        duration_ms=t1, warmup_ms=t0, seed=seed, **sections)


def _lossy_churn(seed: int, t0: float, t1: float) -> ExperimentSpec:
    # Gilbert-Elliott bursts on every access link for the whole run,
    # plus i.i.d. loss on every wired link once the joins are through.
    return _campus_spec(
        "lossy_churn", seed, t0, t1,
        protocol={"max_retries": 12},
        faults=FaultPlan(actions=[
            LossBurst(at_ms=0.0, until_ms=t1, links=[["ap:*", "mh:*"]],
                      p_gb=0.05, p_bg=0.25, loss_good=0.0, loss_bad=0.9),
            Degrade(at_ms=300.0, until_ms=t1, links=_WIRED_LINKS,
                    loss=0.05),
        ]))


def _roaming_clean(seed: int, t0: float, t1: float) -> ExperimentSpec:
    # Access links are made loss-free (they default to 2% loss): see
    # FINDINGS.md for what handoff does under any loss at all.
    return _campus_spec(
        "roaming_clean", seed, t0, t1,
        mobility=MobilitySpec(enabled=True, model="directional",
                              mean_dwell_ms=800.0, persistence=0.9),
        faults=FaultPlan(actions=[
            Degrade(at_ms=0.0, until_ms=t1, links=[["ap:*", "mh:*"]],
                    loss=0.0),
        ]))


def _live_saturated(seed: int, t0: float, t1: float) -> ExperimentSpec:
    # The registry's quickstart shape: 3 BR x 2 AG x 2 AP x 2 MH = 45 nodes.
    return ExperimentSpec(
        name="live_saturated",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0),
        duration_ms=t1, warmup_ms=t0, seed=seed)


@dataclass(frozen=True)
class Workload:
    """One pinned workload: spec factory, timed window, slicing."""

    name: str
    backend: str            # "sim" | "live"
    why: str                # one line, copied into BENCHMARK.json
    default_seed: int
    make_spec: Callable[[int, float, float], ExperimentSpec]
    #: Timed window in simulated ms.  Everything before ``t0`` is
    #: set-up (the join storm) and is left out of the latency samples.
    t0: float
    t1: float
    #: End of the window under ``--quick`` (tests, smoke runs).
    quick_t1: float
    #: Width of one noise-floor slice in simulated ms.
    slice_ms: float
    #: Layers the traced pass measures on this workload in addition to
    #: the ones every pass covers (``"obs"``, ``"shard"``).
    extra_layers: Tuple[str, ...] = ()

    def spec(self, seed: int, quick: bool = False) -> ExperimentSpec:
        return self.make_spec(seed, self.t0,
                              self.quick_t1 if quick else self.t1)

    def window(self, quick: bool = False) -> Tuple[float, float]:
        """``(start, end)`` of the wall-timed span in simulated ms."""
        return self.t0, (self.quick_t1 if quick else self.t1)

    def _edges(self, start: float, end: float) -> List[float]:
        n = max(1, round((end - start) / self.slice_ms))
        return [start + (end - start) * (i + 1) / n for i in range(n)]

    def warmup_edges(self) -> List[float]:
        """Right edges of the set-up slices, ending at ``t0``."""
        return self._edges(0.0, self.t0)

    def slice_edges(self, quick: bool = False) -> List[float]:
        """Right edges of the window's slices, ending at the window end."""
        return self._edges(*self.window(quick))


WORKLOADS: Tuple[Workload, ...] = (
    Workload("fanout_wide", "sim",
             "1038 nodes, ~3.5 events per delivery: fabric, transport and "
             "engine plumbing dominate, core ordering does little",
             42, _fanout_wide, 250.0, 750.0, 400.0, 10.0, ("shard",)),
    Workload("token_small", "sim",
             "10 nodes, ~17 events per delivery: token rotation, periodic "
             "timers and core dominate; a fan-out optimisation predicts "
             "no change here",
             42, _token_small, 4000.0, 30_000.0, 10_000.0, 1000.0,
             ("obs",)),
    Workload("lossy_churn", "sim",
             "105 nodes, burst loss on access links, 5% loss on wired "
             "links, churn, no mobility: RTO timers fire, gap recovery and "
             "the faults overlay run. Handoff under loss is NOT covered "
             "(FINDINGS.md)",
             13, _lossy_churn, 500.0, 4000.0, 1500.0, 100.0),
    Workload("roaming_clean", "sim",
             "105 nodes, directional roaming (~300 handoffs) and churn on "
             "links forced loss-free: handoff, path reservation and "
             "membership run, acks cancel RTOs. Handoff under loss is NOT "
             "covered (FINDINGS.md)",
             13, _roaming_clean, 500.0, 4000.0, 1500.0, 100.0),
    Workload("live_saturated", "live",
             "45 nodes on the asyncio deadline loop run flat out (queue "
             "fabric, time_scale 0.001): the sim engine does none of "
             "the work",
             7, _live_saturated, 1000.0, 6000.0, 2000.0, 100.0),
)


def get(name: str) -> Workload:
    for wl in WORKLOADS:
        if wl.name == name:
            return wl
    raise KeyError(f"unknown workload {name!r}; known: "
                   f"{', '.join(w.name for w in WORKLOADS)}")
