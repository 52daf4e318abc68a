"""Scenario fuzzing: randomized-but-seeded conformance sweeps.

The fuzzer draws random — but fully seed-determined — experiment specs
over the space the runner supports (hierarchy shape × workload ×
churn/failure/mobility schedules × bounded :mod:`repro.faults` plans:
healing partitions, degradation windows, flapping links, loss bursts),
runs each with the complete monitor suite attached (:func:`run_case`),
and reports every invariant violation with the spec that provoked it.
Because specs serialize to JSON, any failing case replays exactly from
the report alone.

Entry points: :func:`fuzz` (library) and ``python -m repro fuzz``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.results import RunResult
from repro.experiments.runner import Harvest, observed_scenario
from repro.experiments.spec import (ChurnSpec, ExperimentSpec, FailureEvent,
                                    HierarchyShape, MobilitySpec,
                                    WorkloadSpec)
from repro.faults.plan import (Degrade, FaultPlan, Flap, LossBurst,
                               Partition)
from repro.sim.rand import derive_seed
from repro.validation.monitor import MonitorSuite
from repro.validation.monitors import DEFAULT_RECOVERY_WINDOW_MS
from repro.validation.record import TraceRecorder
from repro.validation.suite import standard_suite

#: Weighted system choices: the paper's protocol dominates; the ordered
#: single-ring baseline and the unordered ablation keep the monitors
#: honest about system-specific applicability.
_SYSTEM_WEIGHTS = (("ringnet", 6), ("single_ring", 2), ("unordered", 2))

#: Fraction of a case's duration reserved after any injected crash so
#: the campaign's recovery window always fits inside the run.
_RECOVERY_FRACTION = 0.45


def _campaign_recovery_window(duration_ms: float) -> float:
    """The recovery window a campaign of this duration checks with."""
    return min(DEFAULT_RECOVERY_WINDOW_MS,
               duration_ms * _RECOVERY_FRACTION)


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
    failures early enough that the recovery window fits the run.
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

    failures: List[Any] = []
    if rng.random() < 0.4:
        # Early enough that recovery must complete inside the run: the
        # tail after the crash covers the (duration-scaled) recovery
        # window the campaign checks with, so QuiescenceMonitor really
        # verifies every injected crash instead of skipping it.
        at_ms = round(duration_ms * rng.uniform(0.2, 1.0 - _RECOVERY_FRACTION),
                      1)
        if system in ("ringnet", "single_ring") and rng.random() < 0.6:
            failures.append(FailureEvent(at_ms=at_ms,
                                         kind="crash_token_holder"))
        elif system == "ringnet" and depth == 1:
            if ags_per_br > 1 and rng.random() < 0.5:
                # Crash a non-leader AG: ring repair without reparenting
                # the whole subtree through a missing leader.
                br = rng.randrange(n_br)
                failures.append(FailureEvent(
                    at_ms=at_ms, kind="crash",
                    target=f"ag:{br}.{rng.randrange(1, ags_per_br)}"))
            else:
                br = rng.randrange(n_br)
                ag = rng.randrange(ags_per_br)
                ap = rng.randrange(aps_per_ag)
                failures.append(FailureEvent(
                    at_ms=at_ms, kind="crash",
                    target=f"ap:{br}.{ag}.{ap}"))

    faults = FaultPlan()
    protocol: Dict[str, Any] = {}
    if system == "ringnet" and depth == 1 and rng.random() < 0.35:
        faults = random_fault_plan(rng, n_br=n_br, duration_ms=duration_ms)
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
        failures=failures,
        faults=faults,
        duration_ms=float(duration_ms),
        warmup_ms=0.0,
        seed=seed,
    )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    """Machine-readable outcome of one fuzz campaign."""

    budget: int
    base_seed: int
    duration_ms: float
    cases: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(len(c["violations"]) for c in self.cases)

    @property
    def failed_cases(self) -> List[Dict[str, Any]]:
        return [c for c in self.cases if c["violations"]]

    @property
    def ok(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": "repro.validation.fuzz/v1",
            "budget": self.budget,
            "base_seed": self.base_seed,
            "duration_ms": self.duration_ms,
            "ok": self.ok,
            "total_violations": self.total_violations,
            "n_failed_cases": len(self.failed_cases),
            "cases": list(self.cases),
        }


def run_case(spec, suite: MonitorSuite, *observers) -> RunResult:
    """Run one spec with ``suite`` (and any extra observers) attached."""
    harvest = Harvest(spec, suite)
    with observed_scenario(spec, harvest, *observers) as scenario:
        scenario.run()
    return harvest.result


def _case_payload(spec, result: RunResult,
                  suite: MonitorSuite) -> Dict[str, Any]:
    payload = {
        "name": spec.name,
        "system": spec.system,
        "seed": spec.seed,
        "duration_ms": spec.duration_ms,
        "deliveries": result.delivered,
        "ok": not result.violations,
        "violations": list(result.violations),
        "reports": suite.report(),
    }
    # The full spec travels with every failing case so it replays from
    # the report alone; passing cases keep the report compact.
    if result.violations:
        payload["spec"] = spec.to_dict()
    return payload


def fuzz(
    budget: int = 20,
    base_seed: int = 0,
    duration_ms: float = 3_000.0,
    progress: Optional[Any] = None,
    save_traces_dir: Optional[str] = None,
) -> FuzzReport:
    """Generate and check ``budget`` random scenarios.

    Spec shapes derive from ``base_seed`` alone; each case's simulation
    seed is independently derived via
    :func:`repro.sim.rand.derive_seed`, so a campaign is reproducible
    end-to-end from ``(budget, base_seed, duration_ms)``.
    ``progress(index, budget, result)`` sees each case's
    :class:`~repro.experiments.results.RunResult`.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = FuzzReport(budget=budget, base_seed=base_seed,
                        duration_ms=duration_ms)
    shape_rng = random.Random(derive_seed(base_seed, "fuzz-shapes"))
    window = _campaign_recovery_window(duration_ms)
    for index in range(budget):
        seed = derive_seed(base_seed, "fuzz-case", index)
        spec = random_spec(shape_rng, index=index, seed=seed,
                           duration_ms=duration_ms)
        suite = standard_suite(spec.system, recovery_window_ms=window)
        result = run_case(spec, suite)
        if result.violations and save_traces_dir is not None:
            # Re-run the failing case with recording on: traces are too
            # big to capture speculatively for every passing case.
            suite = standard_suite(spec.system, recovery_window_ms=window)
            recorder = TraceRecorder()
            result = run_case(spec, suite, recorder)
            _save_failure(save_traces_dir, spec, recorder)
        report.cases.append(_case_payload(spec, result, suite))
        if progress is not None:
            progress(index, budget, result)
    return report


def _save_failure(dirpath: str, spec, recorder: TraceRecorder) -> None:
    os.makedirs(dirpath, exist_ok=True)
    base = os.path.join(dirpath, spec.name)
    with open(base + ".spec.json", "w", encoding="utf-8") as fh:
        fh.write(spec.to_json() + "\n")
    recorder.write(base + ".trace.jsonl")
