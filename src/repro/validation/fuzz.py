"""Scenario fuzzing: randomized-but-seeded conformance campaigns.

The generator draws random — but fully seed-determined — experiment
specs over the space the runner supports (hierarchy shape × workload ×
churn/failure/mobility schedules × bounded :mod:`repro.faults` plans:
healing partitions, degradation windows, flapping links, loss bursts).
A campaign is those specs as a list of run points
(:func:`fuzz_points`) handed to the sweep runner with the campaign's
monitor suite as its check (:func:`campaign_suite`)::

    run_sweep(fuzz_points(20, 0, 3000.0), jobs=2, check=campaign_suite)

which is all ``python -m repro fuzz`` does — there is no second
harness.  Because specs serialize to JSON and ``run`` takes a spec
file, a failing case replays exactly from what ``--save-traces`` wrote.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.experiments.grid import RunPoint
from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                    HierarchyShape, MobilitySpec,
                                    WorkloadSpec)
from repro.faults.plan import (TOKEN_HOLDER, Crash, Degrade, FaultPlan, Flap,
                               LossBurst, Partition)
from repro.sim.rand import derive_seed
from repro.validation.monitor import MonitorSuite
from repro.validation.monitors import DEFAULT_RECOVERY_WINDOW_MS
from repro.validation.suite import standard_suite

#: Weighted system choices: the paper's protocol dominates; the ordered
#: single-ring baseline and the unordered ablation keep the monitors
#: honest about system-specific applicability.
_SYSTEM_WEIGHTS = (("ringnet", 6), ("single_ring", 2), ("unordered", 2))

#: Fraction of a case's duration reserved after any injected crash so
#: the campaign's recovery window always fits inside the run.
_RECOVERY_FRACTION = 0.45


def campaign_suite(spec: ExperimentSpec) -> MonitorSuite:
    """The suite a campaign checks ``spec`` with: the standard one, its
    recovery window scaled to the run so a generated crash — always at
    least that far from the end — is verified, not skipped."""
    return standard_suite(
        spec.system,
        recovery_window_ms=min(DEFAULT_RECOVERY_WINDOW_MS,
                               spec.duration_ms * _RECOVERY_FRACTION))


def _choice_weighted(rng: random.Random, pairs) -> str:
    total = sum(w for _, w in pairs)
    pick = rng.randrange(total)
    acc = 0
    for value, weight in pairs:
        acc += weight
        if pick < acc:
            return value
    return pairs[-1][0]  # pragma: no cover - unreachable


def random_fault_plan(rng: random.Random, *, n_br: int,
                      duration_ms: float) -> FaultPlan:
    """A random, bounded :class:`~repro.faults.plan.FaultPlan`.

    Every action is constructed so recovery fits the campaign window:
    partitions activate in the first third of the run and heal within
    100–250 ms (short enough that, with the retry budget
    :func:`random_spec` provisions, the ordering token survives the
    outage in retransmission); degradations, flaps, and loss bursts are
    bounded in both span and severity.
    """
    actions: List[Any] = []
    for _ in range(rng.randint(1, 2)):
        at_ms = round(duration_ms * rng.uniform(0.10, 0.35), 1)
        roll = rng.random()
        if roll < 0.35 and n_br >= 2:
            b = rng.randrange(n_br)
            direction = "both" if rng.random() < 0.7 else \
                rng.choice(["a_to_b", "b_to_a"])
            actions.append(Partition(
                at_ms=at_ms,
                heal_at_ms=at_ms + rng.randint(100, 250),
                direction=direction,
                groups=[[f"br:{b}", f"ag:{b}.*", f"ap:{b}.*", f"mh:{b}.*"],
                        ["@rest"]]))
        elif roll < 0.55:
            actions.append(Degrade(
                at_ms=at_ms,
                until_ms=at_ms + rng.randint(300, 900),
                links=[["br:*", "br:*"]] if rng.random() < 0.5
                else [["ap:*", "mh:*"]],
                loss=round(rng.uniform(0.05, 0.30), 2),
                latency_factor=round(rng.uniform(1.0, 3.0), 1)))
        elif roll < 0.75:
            a = rng.randrange(n_br)
            actions.append(Flap(
                at_ms=at_ms,
                until_ms=at_ms + rng.randint(400, 1_000),
                link=[f"br:{a}", f"br:{(a + 1) % n_br}"],
                period_ms=float(rng.randint(80, 200)),
                duty=round(rng.uniform(0.5, 0.8), 2)))
        else:
            actions.append(LossBurst(
                at_ms=at_ms,
                until_ms=at_ms + rng.randint(400, 1_200),
                links=[["ap:*", "mh:*"]],
                p_gb=round(rng.uniform(0.02, 0.10), 3),
                p_bg=round(rng.uniform(0.20, 0.50), 3),
                loss_bad=round(rng.uniform(0.50, 0.90), 2)))
    return FaultPlan(actions=actions)


def random_spec(rng: random.Random, *, index: int, seed: int,
                duration_ms: float = 3_000.0):
    """One random, valid :class:`~repro.experiments.spec.ExperimentSpec`.

    Every constraint the runner enforces is respected by construction:
    ``s <= r`` sources, depth > 1 only for ringnet, mobility only for
    ringnet, crash targets that exist in the generated shape, and
    crashes early enough that the recovery window fits the run.
    """
    system = _choice_weighted(rng, _SYSTEM_WEIGHTS)

    n_br = rng.randint(2, 4)
    ags_per_br = rng.randint(1, 3)
    aps_per_ag = rng.randint(1, 3)
    mhs_per_ap = rng.randint(1, 3)
    depth = 1
    ring_size = 3
    if system == "ringnet" and rng.random() < 0.15:
        depth = 2
        ring_size = rng.randint(2, 3)
        n_br = 2
    hierarchy = HierarchyShape(n_br=n_br, ags_per_br=ags_per_br,
                               aps_per_ag=aps_per_ag, mhs_per_ap=mhs_per_ap,
                               depth=depth, ring_size=ring_size)

    s = rng.randint(1, n_br)  # the paper's s <= r assumption
    pattern = "poisson" if rng.random() < 0.3 else "cbr"
    workload = WorkloadSpec(s=s, rate_per_sec=float(rng.randint(5, 35)),
                            pattern=pattern)

    mobility = MobilitySpec()
    if system == "ringnet" and depth == 1 and rng.random() < 0.3:
        mobility = MobilitySpec(
            enabled=True,
            model="directional" if rng.random() < 0.5 else "random_walk",
            mean_dwell_ms=float(rng.randint(600, 3_000)),
        )

    churn = ChurnSpec()
    if rng.random() < 0.4:
        churn = ChurnSpec(enabled=True,
                          mean_interval_ms=float(rng.randint(200, 1_000)),
                          min_members=1)

    actions: List[Any] = []     # crashes first, then the network faults
    if rng.random() < 0.4:
        # Early enough that recovery must complete inside the run: the
        # tail after the crash covers the (duration-scaled) recovery
        # window the campaign checks with, so RecoveryMonitor really
        # verifies every injected crash instead of skipping it.
        at_ms = round(duration_ms * rng.uniform(0.2, 1.0 - _RECOVERY_FRACTION),
                      1)
        if system in ("ringnet", "single_ring") and rng.random() < 0.6:
            actions.append(Crash(at_ms=at_ms, target=TOKEN_HOLDER))
        elif system == "ringnet" and depth == 1:
            if ags_per_br > 1 and rng.random() < 0.5:
                # Crash a non-leader AG: ring repair without reparenting
                # the whole subtree through a missing leader.
                br = rng.randrange(n_br)
                actions.append(Crash(
                    at_ms=at_ms,
                    target=f"ag:{br}.{rng.randrange(1, ags_per_br)}"))
            else:
                br = rng.randrange(n_br)
                ag = rng.randrange(ags_per_br)
                ap = rng.randrange(aps_per_ag)
                actions.append(Crash(at_ms=at_ms,
                                     target=f"ap:{br}.{ag}.{ap}"))

    protocol: Dict[str, Any] = {}
    if system == "ringnet" and depth == 1 and rng.random() < 0.35:
        actions += random_fault_plan(rng, n_br=n_br,
                                     duration_ms=duration_ms).actions
        # No maintenance event fires for a network fault, so the token
        # must ride out any outage in retransmission: widen the retry
        # budget past the longest partition/flap-down span the generator
        # can produce (12 x 25 ms rto > 250 ms).
        protocol["max_retries"] = 12

    return ExperimentSpec(
        name=f"fuzz-{index:04d}",
        description="randomized conformance scenario",
        system=system,
        hierarchy=hierarchy,
        protocol=protocol,
        workload=workload,
        mobility=mobility,
        churn=churn,
        faults=FaultPlan(actions=actions),
        duration_ms=float(duration_ms),
        warmup_ms=0.0,
        seed=seed,
    )


def fuzz_points(budget: int = 20, base_seed: int = 0,
                duration_ms: float = 3_000.0) -> List[RunPoint]:
    """The campaign ``(budget, base_seed, duration_ms)`` as run points.

    Spec shapes derive from ``base_seed`` alone (one shared stream);
    each case's simulation seed is independently derived via
    :func:`repro.sim.rand.derive_seed`, so the campaign is reproducible
    end-to-end from its three numbers.  Case ``i`` is point ``i``.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    shape_rng = random.Random(derive_seed(base_seed, "fuzz-shapes"))
    points = []
    for index in range(budget):
        seed = derive_seed(base_seed, "fuzz-case", index)
        spec = random_spec(shape_rng, index=index, seed=seed,
                           duration_ms=duration_ms)
        points.append(RunPoint(spec=spec, point_index=index, seed=seed))
    return points
