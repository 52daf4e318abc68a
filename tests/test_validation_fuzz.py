"""Scenario-fuzzing harness tests."""

import json
import random

import pytest

from repro.experiments.runner import build_scenario
from repro.experiments.spec import ExperimentSpec
from repro.validation.fuzz import FuzzReport, fuzz, random_spec


# ---------------------------------------------------------------------------
# Generator properties
# ---------------------------------------------------------------------------
def _specs(seed, n, duration=2_000.0):
    rng = random.Random(seed)
    return [random_spec(rng, index=i, seed=1000 + i, duration_ms=duration)
            for i in range(n)]


def test_generated_specs_are_valid_and_buildable():
    for spec in _specs(seed=42, n=30):
        # Spec validation happened in the constructors; the runner's
        # constraints (s <= r, depth/system/mobility coupling, crash
        # targets that exist) must hold too: building proves it.
        scenario = build_scenario(spec.copy())
        assert scenario.duration_ms == spec.duration_ms


def test_generated_specs_roundtrip_json():
    for spec in _specs(seed=7, n=20):
        assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_generation_is_seed_deterministic():
    a = [s.to_json() for s in _specs(seed=5, n=15)]
    b = [s.to_json() for s in _specs(seed=5, n=15)]
    assert a == b
    c = [s.to_json() for s in _specs(seed=6, n=15)]
    assert a != c


def test_generator_covers_the_scenario_space():
    specs = _specs(seed=3, n=60)
    systems = {s.system for s in specs}
    assert "ringnet" in systems and len(systems) >= 2
    assert any(s.churn.enabled for s in specs)
    assert any(s.mobility.enabled for s in specs)
    assert any(s.failures for s in specs)
    assert any(s.workload.pattern == "poisson" for s in specs)
    # Constraint: never more sources than top-ring members (s <= r).
    for s in specs:
        if s.system == "ringnet":
            assert s.workload.s <= s.hierarchy.n_br


# ---------------------------------------------------------------------------
# Campaign harness
# ---------------------------------------------------------------------------
def test_small_campaign_is_clean_and_reproducible():
    a = fuzz(budget=3, base_seed=123, duration_ms=1_200.0)
    assert isinstance(a, FuzzReport)
    assert a.ok, a.failed_cases
    assert len(a.cases) == 3
    assert all(c["deliveries"] > 0 for c in a.cases)
    b = fuzz(budget=3, base_seed=123, duration_ms=1_200.0)
    assert a.to_dict() == b.to_dict()


def test_campaign_report_shape():
    report = fuzz(budget=2, base_seed=9, duration_ms=1_000.0)
    doc = report.to_dict()
    assert doc["schema"] == "repro.validation.fuzz/v1"
    assert doc["budget"] == 2 and doc["n_failed_cases"] == 0
    json.dumps(doc)  # serializable as-is
    # Passing cases stay compact: no embedded spec.
    assert all("spec" not in c for c in doc["cases"])


def test_fuzz_budget_validation():
    with pytest.raises(ValueError):
        fuzz(budget=0)


def test_progress_callback_sees_every_case():
    seen = []
    fuzz(budget=2, base_seed=1, duration_ms=1_000.0,
         progress=lambda i, total, result: seen.append(
             (i, total, result.violations)))
    assert [s[:2] for s in seen] == [(0, 2), (1, 2)]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_fuzz_writes_report(tmp_path, capsys):
    from repro.__main__ import main
    out = str(tmp_path / "report.json")
    code = main(["fuzz", "--budget", "2", "--duration", "1000",
                 "--seed", "321", "--quiet", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["ok"] is True and doc["budget"] == 2
    assert "fuzz: 2 cases" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Fault-plan synthesis
# ---------------------------------------------------------------------------
def test_generator_synthesizes_fault_plans():
    specs = _specs(seed=42, n=80)
    with_plans = [s for s in specs if s.faults]
    assert with_plans, "no generated spec carried a fault plan"
    kinds = {a.kind for s in with_plans for a in s.faults}
    assert len(kinds) >= 2  # several action families get exercised
    for s in with_plans:
        # Plans only ride on the system that can absorb them, with the
        # widened retry budget the token needs to survive an outage.
        assert s.system == "ringnet" and s.hierarchy.depth == 1
        assert s.protocol.get("max_retries") == 12


def test_generated_fault_plans_are_bounded():
    for s in _specs(seed=9, n=120, duration=2_500.0):
        for a in s.faults:
            assert a.at_ms <= 0.35 * s.duration_ms
            end = a.end_ms()
            if a.kind == "partition":
                assert end is not None, "fuzzed partitions must heal"
                assert end - a.at_ms <= 250.0
            else:
                assert end is not None and end - a.at_ms <= 1_200.0


def test_fault_plan_specs_roundtrip_json():
    plans = [s for s in _specs(seed=42, n=80) if s.faults]
    for s in plans[:5]:
        assert ExperimentSpec.from_json(s.to_json()) == s


def test_fuzz_smoke_ten_seeded_fault_plans_are_clean():
    """Ten generated specs *with* fault plans, full monitor suite, zero
    violations (the PR's fault-fuzzing conformance gate)."""
    from repro.validation.fuzz import _campaign_recovery_window, run_case
    from repro.validation.suite import standard_suite

    duration = 2_500.0
    rng = random.Random(20260729)
    cases = []
    for i in range(400):
        spec = random_spec(rng, index=i, seed=5000 + i,
                           duration_ms=duration)
        if spec.faults:
            cases.append(spec)
        if len(cases) == 10:
            break
    assert len(cases) == 10, "generator starved the smoke test"
    window = _campaign_recovery_window(duration)
    for spec in cases:
        suite = standard_suite(spec.system, recovery_window_ms=window)
        result = run_case(spec, suite)
        assert not result.violations, (spec.name, spec.faults.to_dict(),
                                       result.violations[:3])
