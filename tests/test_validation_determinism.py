"""Seed-determinism as a checked property (not an assumption).

Two runs of the same :class:`ExperimentSpec` + seed must produce
byte-identical trace streams — the determinism guard every sweep,
replication-seed derivation, and record/replay workflow rests on.
"""

import pytest

from repro.experiments import registry
from repro.experiments.runner import run_point
from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                    HierarchyShape, MobilitySpec,
                                    WorkloadSpec)
from repro.faults import TOKEN_HOLDER, Crash, FaultPlan
from repro.validation.record import first_divergence, record_spec


def _stream(spec):
    return record_spec(spec).to_jsonl()


# ---------------------------------------------------------------------------
# The property, across systems and dynamics
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,overrides", [
    ("quickstart", {}),
    ("campus", {}),                       # mobility (RNG-heavy)
    ("churn_heavy", {}),                  # membership churn
    ("bursty_sources", {}),               # poisson arrivals
    ("ring_vs_baselines", {"system": "unordered"}),
    ("ring_vs_baselines", {"system": "single_ring"}),
])
def test_same_spec_same_seed_byte_identical(name, overrides):
    spec = registry.get(name, **{"duration_ms": 1_500.0, "warmup_ms": 0.0,
                                 **overrides})
    a, b = _stream(spec), _stream(spec)
    assert a == b
    assert a.count("\n") > 0


def test_failure_schedule_is_deterministic():
    spec = ExperimentSpec(
        name="det-failures",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=1,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=1, rate_per_sec=25.0),
        faults=FaultPlan([Crash(at_ms=600.0, target=TOKEN_HOLDER)]),
        duration_ms=2_000.0, warmup_ms=0.0, seed=42,
    )
    assert _stream(spec) == _stream(spec)


def test_full_dynamics_deterministic():
    spec = ExperimentSpec(
        name="det-everything",
        hierarchy=HierarchyShape(n_br=2, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=2),
        workload=WorkloadSpec(s=2, rate_per_sec=20.0, pattern="poisson"),
        mobility=MobilitySpec(enabled=True, mean_dwell_ms=700.0),
        churn=ChurnSpec(enabled=True, mean_interval_ms=400.0),
        duration_ms=2_000.0, warmup_ms=0.0, seed=77,
    )
    assert _stream(spec) == _stream(spec)


def test_different_seeds_actually_differ():
    base = registry.get("quickstart", **{"duration_ms": 1_500.0,
                                         "warmup_ms": 0.0})
    other = base.with_overrides({"seed": base.seed + 1})
    assert _stream(base) != _stream(other)


def test_divergence_pinpoints_seed_change():
    base = registry.get("quickstart", **{"duration_ms": 1_200.0,
                                         "warmup_ms": 0.0})
    a = record_spec(base).lines
    b = record_spec(base.with_overrides({"seed": 999})).lines
    div = first_divergence(a, b)
    assert div is not None
    # Everything before the divergence index really is identical.
    assert a[:div.index] == b[:div.index]


# ---------------------------------------------------------------------------
# Observation does not perturb: checked run == unchecked run
# ---------------------------------------------------------------------------
def test_check_does_not_perturb_results():
    spec = registry.get("churn_heavy", **{"duration_ms": 2_000.0,
                                          "warmup_ms": 0.0})
    plain = run_point(spec).to_dict(include_timing=False)
    checked = run_point(spec, check=True)
    assert checked.violations == []
    checked_dict = checked.to_dict(include_timing=False)
    checked_dict.pop("violations")
    assert checked_dict == plain
