"""Scenario-fuzzing harness tests."""

import json
import os
import random

import pytest

import repro.__main__ as repro_main
from repro.__main__ import main
from repro.experiments import registry
from repro.experiments.results import to_artifact
from repro.experiments.runner import build_scenario, run_point, run_sweep
from repro.experiments.spec import ExperimentSpec
from repro.sim.rand import derive_seed
from repro.validation import fuzz as fuzz_module
from repro.validation.fuzz import campaign_suite, fuzz_points, random_spec

from helpers import poisoned, spec_path


# ---------------------------------------------------------------------------
# Generator properties
# ---------------------------------------------------------------------------
def _specs(seed, n, duration=2_000.0):
    rng = random.Random(seed)
    return [random_spec(rng, index=i, seed=1000 + i, duration_ms=duration)
            for i in range(n)]


def _network_faults(spec):
    """The generated network-fault actions (crashes are not among them)."""
    return [a for a in spec.faults if a.kind != "crash"]


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
    assert any(a.kind == "crash" for s in specs for a in s.faults)
    assert any(s.workload.pattern == "poisson" for s in specs)
    # Constraint: never more sources than top-ring members (s <= r).
    for s in specs:
        if s.system == "ringnet":
            assert s.workload.s <= s.hierarchy.n_br


# ---------------------------------------------------------------------------
# The campaign: a sweep over ``fuzz_points`` checked by ``campaign_suite``
# ---------------------------------------------------------------------------
def _campaign(argv, tmp_path, name="report.json"):
    out = str(tmp_path / name)
    code = main(["fuzz", "--quiet", "--out", out] + argv)
    with open(out) as fh:
        return code, fh.read()


def test_small_campaign_is_clean_and_reproducible():
    points = fuzz_points(3, 123, 1_200.0)
    a = run_sweep(points, check=campaign_suite)
    assert [r.violations for r in a] == [[], [], []]
    assert [r.name for r in a] == ["fuzz-0000", "fuzz-0001", "fuzz-0002"]
    assert all(r.delivered > 0 for r in a)
    b = run_sweep(fuzz_points(3, 123, 1_200.0), check=campaign_suite)
    assert to_artifact(a) == to_artifact(b)


def test_fuzz_points_are_the_campaign_derivation():
    """One shared shape stream, per-case derived seeds, case i = point i."""
    shape_rng = random.Random(derive_seed(9, "fuzz-shapes"))
    expected = [random_spec(shape_rng, index=i,
                            seed=derive_seed(9, "fuzz-case", i),
                            duration_ms=1_500.0) for i in range(5)]
    points = fuzz_points(5, 9, 1_500.0)
    assert [p.spec for p in points] == expected
    assert [(p.point_index, p.replication, p.seed) for p in points] \
        == [(i, 0, s.seed) for i, s in enumerate(expected)]
    assert points[3].run_id == "fuzz-0003#p3r0"


def test_campaign_report_shape(tmp_path):
    code, text = _campaign(["--budget", "2", "--duration", "1000",
                            "--seed", "9"], tmp_path)
    doc = json.loads(text)
    assert code == 0
    # The campaign's artifact is the sweep's, not a schema of its own.
    assert doc["schema"] == "repro.experiments/v1"
    assert doc["meta"] == {"command": "fuzz", "budget": 2, "base_seed": 9,
                           "duration_ms": 1000.0}
    assert doc["n_runs"] == 2
    assert [run["violations"] for run in doc["runs"]] == [[], []]
    # Runs stay compact: no embedded spec (meta re-derives every case).
    assert all("spec" not in run for run in doc["runs"])


def test_fuzz_budget_validation():
    with pytest.raises(ValueError):
        fuzz_points(budget=0)
    assert main(["fuzz", "--budget", "0"]) == 2


def test_progress_callback_sees_every_case():
    seen = []
    run_sweep(fuzz_points(2, 1, 1_000.0), check=campaign_suite,
              progress=lambda i, total, result: seen.append(
                  (i, total, result.violations)))
    assert seen == [(0, 2, []), (1, 2, [])]


def test_campaign_artifact_is_byte_equal_across_jobs_and_reruns(
        tmp_path, monkeypatch):
    argv = ["--budget", "4", "--duration", "1000", "--seed", "5"]
    _, parallel = _campaign(argv, tmp_path, "a.json")
    _, again = _campaign(argv, tmp_path, "b.json")
    monkeypatch.setattr(repro_main, "SWEEP_JOBS", 1)
    _, serial = _campaign(argv, tmp_path, "c.json")
    assert parallel == again == serial


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_fuzz_writes_report(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["fuzz", "--budget", "2", "--duration", "1000",
                 "--seed", "321", "--quiet", "--out", out])
    assert code == 0
    doc = json.loads(open(out).read())
    assert doc["meta"]["budget"] == 2
    assert all(run["violations"] == [] for run in doc["runs"])
    assert "fuzz: 2 cases, 0 failed" in capsys.readouterr().out


def test_a_failing_case_is_saved_as_files_run_accepts(tmp_path, monkeypatch,
                                                      capsys):
    """A poisoned suite factory fails the campaign; ``--save-traces``
    writes the spec ``run`` re-runs and the trace that re-run records."""
    # cmd_fuzz looks the factory up in its module per call.
    monkeypatch.setattr(fuzz_module, "campaign_suite",
                        poisoned(campaign_suite))
    saved = tmp_path / "failures"
    assert main(["fuzz", "--budget", "1", "--duration", "800", "--quiet",
                 "--save-traces", str(saved)]) == 1
    assert "check: fuzz-0000#p0r0: " in capsys.readouterr().out
    assert sorted(os.listdir(saved)) == ["fuzz-0000.spec.json",
                                         "fuzz-0000.trace.jsonl"]
    spec_file = str(saved / "fuzz-0000.spec.json")
    assert registry.resolve(spec_file) == fuzz_points(1, 0, 800.0)[0].spec
    rerun = tmp_path / "rerun.jsonl"
    # The poison was the campaign's: the standard suite finds it clean.
    assert main(["run", spec_file, "--check", "--quiet",
                 "--record", str(rerun)]) == 0
    assert rerun.read_text() == (saved / "fuzz-0000.trace.jsonl").read_text()


# ---------------------------------------------------------------------------
# Fault-plan synthesis
# ---------------------------------------------------------------------------
def test_generator_synthesizes_fault_plans():
    specs = _specs(seed=42, n=80)
    with_plans = [s for s in specs if _network_faults(s)]
    assert with_plans, "no generated spec carried a fault plan"
    kinds = {a.kind for s in with_plans for a in _network_faults(s)}
    assert len(kinds) >= 2  # several action families get exercised
    for s in with_plans:
        # Plans only ride on the system that can absorb them, with the
        # widened retry budget the token needs to survive an outage.
        assert s.system == "ringnet" and s.hierarchy.depth == 1
        assert s.protocol.get("max_retries") == 12


def test_generated_fault_plans_are_bounded():
    for s in _specs(seed=9, n=120, duration=2_500.0):
        for a in _network_faults(s):
            assert a.at_ms <= 0.35 * s.duration_ms
            end = a.end_ms()
            if a.kind == "partition":
                assert end is not None, "fuzzed partitions must heal"
                assert end - a.at_ms <= 250.0
            else:
                assert end is not None and end - a.at_ms <= 1_200.0


def test_fault_plan_specs_roundtrip_json():
    plans = [s for s in _specs(seed=42, n=80) if _network_faults(s)]
    for s in plans[:5]:
        assert ExperimentSpec.from_json(s.to_json()) == s


def test_fuzz_smoke_ten_seeded_fault_plans_are_clean():
    """Ten generated specs *with* fault plans, full monitor suite, zero
    violations (the PR's fault-fuzzing conformance gate)."""
    duration = 2_500.0
    rng = random.Random(20260729)
    cases = []
    for i in range(400):
        spec = random_spec(rng, index=i, seed=5000 + i,
                           duration_ms=duration)
        if _network_faults(spec):
            cases.append(spec)
        if len(cases) == 10:
            break
    assert len(cases) == 10, "generator starved the smoke test"
    # The campaign's duration-scaled window, through the factory: every
    # generated crash leaves room for it, so it is checked, not skipped.
    recovery = campaign_suite(cases[0]).get("recovery")
    assert recovery.recovery_window_ms == 0.45 * duration
    for spec in cases:
        result = run_point(spec, check=campaign_suite)
        assert not result.violations, (spec.name, spec.faults.to_dict(),
                                       result.violations[:3])


# ---------------------------------------------------------------------------
# The failure CI's own smoke had been reporting since PR 6 (ROADMAP 1d)
# ---------------------------------------------------------------------------
FUZZ_0011 = spec_path("fuzz_0011_d2000.json")


def test_the_pinned_failure_is_case_11_of_the_2000_ms_campaign():
    assert registry.resolve(FUZZ_0011) \
        == fuzz_points(20, 0, 2_000.0)[11].spec


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 1d: under Degrade(br<->br, loss 0.23, latency x2.7) br:0 "
    "suspects Token-Loss while the token is alive in retransmission; the "
    "regenerated token mints gseq 60-62 a second time (9 token "
    "uniqueness + 33 total-order agreement violations)"))
def test_fuzz_0011_at_2000_ms_is_clean():
    spec = registry.resolve(FUZZ_0011)
    assert run_point(spec, check=True).violations == []
