"""Tests for the repro.experiments subsystem.

Covers: spec round-trips, dotted overrides, grid expansion and seed
derivation, registry construction, same-seed replay determinism,
serial-vs-parallel runner equivalence, aggregation math, deterministic
artifact export, and a CLI smoke test.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments import (ChurnSpec, ExperimentSpec, HierarchyShape,
                               MobilitySpec, RunPoint, RunResult,
                               WorkloadSpec, aggregate, build_scenario,
                               expand_grid, export_csv, export_json,
                               registry, run_point, run_sweep)
from repro.faults import TOKEN_HOLDER, Crash, FaultPlan
from repro.__main__ import main as cli_main
from repro.sim.rand import RandomStreams, derive_seed

#: Small, fast spec used by the execution tests (~0.2 s wall per run).
TINY = ExperimentSpec(
    name="tiny",
    hierarchy=HierarchyShape(n_br=2, ags_per_br=1, aps_per_ag=1,
                             mhs_per_ap=1),
    workload=WorkloadSpec(s=1, rate_per_sec=20.0),
    duration_ms=1_500.0,
    warmup_ms=500.0,
    seed=42,
)


# ----------------------------------------------------------------------
# Spec serialization
# ----------------------------------------------------------------------
class TestSpec:
    def test_dict_round_trip(self):
        spec = ExperimentSpec(
            name="rt",
            system="single_ring",
            hierarchy=HierarchyShape(n_br=5, depth=2, ring_size=4),
            protocol={"tau": 2.5, "mq_retention": 32},
            workload=WorkloadSpec(rates=[60.0, 10.0], pattern="poisson"),
            mobility=MobilitySpec(enabled=True, model="directional"),
            churn=ChurnSpec(enabled=True, mean_interval_ms=100.0),
            faults=FaultPlan([Crash(at_ms=100.0, target="br:0"),
                              Crash(at_ms=5.0, target=TOKEN_HOLDER)]),
            duration_ms=5_000.0, warmup_ms=1_000.0, seed=99,
        )
        data = spec.to_dict()
        again = ExperimentSpec.from_dict(data)
        assert again == spec
        assert again.to_dict() == data

    def test_json_round_trip(self):
        spec = registry.get("failure_drill")
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_partial_dict_uses_defaults(self):
        spec = ExperimentSpec.from_dict({"hierarchy": {"n_br": 7}})
        assert spec.hierarchy.n_br == 7
        assert spec.hierarchy.ags_per_br == HierarchyShape().ags_per_br
        assert spec.workload == WorkloadSpec()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentSpec.from_dict({"n_br": 3})
        with pytest.raises(ValueError, match="unknown"):
            ExperimentSpec.from_dict({"hierarchy": {"brs": 3}})

    def test_with_overrides_dotted(self):
        base = registry.get("quickstart")
        new = base.with_overrides({
            "hierarchy.n_br": 6,
            "workload.rate_per_sec": 99.0,
            "protocol.tau": 1.25,
            "system": "unordered",
        })
        assert (new.hierarchy.n_br, new.workload.rate_per_sec) == (6, 99.0)
        assert new.protocol["tau"] == 1.25
        assert new.system == "unordered"
        # The original is untouched.
        assert base.hierarchy.n_br == 3 and base.protocol == {}

    def test_with_overrides_unknown_path(self):
        with pytest.raises(KeyError):
            registry.get("quickstart").with_overrides({"hierarchy.nbr": 1})
        with pytest.raises(KeyError):
            registry.get("quickstart").with_overrides({"nope": 1})

    def test_protocol_config_validation(self):
        spec = TINY.with_overrides({"protocol.tau": 2.0})
        assert spec.protocol_config().tau == 2.0
        bad = TINY.copy()
        bad.protocol["not_a_knob"] = 1
        with pytest.raises(ValueError, match="not_a_knob"):
            bad.protocol_config()

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(system="carrier_pigeon")
        with pytest.raises(ValueError):
            ExperimentSpec(duration_ms=1000.0, warmup_ms=1000.0)
        with pytest.raises(ValueError):
            WorkloadSpec(pattern="fractal")
        with pytest.raises(ValueError):
            Crash(at_ms=5.0)  # no target


# ----------------------------------------------------------------------
# Grid expansion and seed derivation
# ----------------------------------------------------------------------
class TestGrid:
    SWEEP = {"hierarchy.n_br": [2, 3, 4], "workload.rate_per_sec": [10.0, 20.0]}

    def test_point_count_and_params(self):
        points = expand_grid(TINY, self.SWEEP, replications=3)
        assert len(points) == 3 * 2 * 3
        assert len({p.run_id for p in points}) == len(points)
        # Axis order: n_br is the outer (slower) axis.
        assert points[0].params == {"hierarchy.n_br": 2,
                                    "workload.rate_per_sec": 10.0}
        assert points[0].spec.hierarchy.n_br == 2
        assert points[-1].spec.hierarchy.n_br == 4
        assert {p.replication for p in points} == {0, 1, 2}

    def test_seeds_deterministic_and_distinct(self):
        a = expand_grid(TINY, self.SWEEP, replications=2)
        b = expand_grid(TINY, self.SWEEP, replications=2)
        assert [p.seed for p in a] == [p.seed for p in b]
        assert len({p.seed for p in a}) == len(a)
        assert all(p.spec.seed == p.seed for p in a)
        # Root seed actually matters.
        c = expand_grid(TINY, self.SWEEP, replications=2, root_seed=1)
        assert [p.seed for p in c] != [p.seed for p in a]

    def test_explicit_seed_axis_wins(self):
        points = expand_grid(TINY, {"seed": [111, 222]})
        assert [p.seed for p in points] == [111, 222]
        assert [p.spec.seed for p in points] == [111, 222]

    def test_no_sweep_is_single_point(self):
        points = expand_grid(TINY, None, replications=2)
        assert len(points) == 2
        assert points[0].params == {}

    def test_bad_axes_rejected(self):
        with pytest.raises(ValueError):
            expand_grid(TINY, {"hierarchy.n_br": 3})  # not a list
        with pytest.raises(ValueError):
            expand_grid(TINY, {"hierarchy.n_br": []})
        with pytest.raises(ValueError):
            expand_grid(TINY, None, replications=0)

    def test_seed_axis_with_replications_rejected(self):
        # seeds [1,1,1,2,2,2] would be n fake "independent" samples.
        with pytest.raises(ValueError, match="seed"):
            expand_grid(TINY, {"seed": [1, 2]}, replications=3)

    def test_run_point_dict_round_trip(self):
        point = expand_grid(TINY, self.SWEEP, replications=1)[3]
        assert RunPoint.from_dict(point.to_dict()) == point


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(7, 0, 1) == derive_seed(7, 0, 1)
        seeds = {derive_seed(7, p, r) for p in range(10) for r in range(10)}
        assert len(seeds) == 100

    def test_streams_spawn(self):
        parent = RandomStreams(7)
        child_a = parent.spawn(0)
        child_b = parent.spawn(1)
        assert child_a.master_seed == parent.spawn(0).master_seed
        assert child_a.master_seed != child_b.master_seed
        # Spawned streams draw independently of the parent's.
        assert child_a.get("x").random() != parent.get("x").random()


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_catalog_complete(self):
        expected = {"quickstart", "handoff_storm", "churn_heavy",
                    "deep_hierarchy", "failure_drill", "ring_vs_baselines",
                    "hotspot", "bursty_sources", "correlated_ap_failures"}
        assert expected <= set(registry.names())

    def test_factories_return_fresh_specs(self):
        a = registry.get("quickstart")
        a.protocol["tau"] = 0.1
        assert registry.get("quickstart").protocol == {}

    def test_get_with_overrides(self):
        spec = registry.get("quickstart", **{"workload.s": 3})
        assert spec.workload.s == 3

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="quickstart"):
            registry.get("no_such_scenario")

    def test_every_scenario_builds(self):
        # Construction only (no run): catches spec/runner mismatches
        # like shape constraints a spec cannot meet.
        for name in registry.names():
            scenario = build_scenario(registry.get(name))
            assert scenario.net is not None, name
            assert len(scenario.fleet) >= 1, name


# ----------------------------------------------------------------------
# Runner determinism and equivalence
# ----------------------------------------------------------------------
class TestRunner:
    def test_same_seed_same_result(self):
        a = run_point(TINY).to_dict(include_timing=False)
        b = run_point(TINY).to_dict(include_timing=False)
        assert a == b
        assert a["delivered"] > 0 and a["order_violations"] == 0

    def test_different_seed_different_trajectory(self):
        # CBR traffic on a jittered fabric: latency samples must differ.
        a = run_point(TINY)
        b = run_point(TINY.with_overrides({"seed": 43}))
        assert a.latency != b.latency

    def test_serial_equals_parallel(self):
        points = expand_grid(TINY, {"workload.rate_per_sec": [10.0, 30.0]},
                             replications=1)
        serial = run_sweep(points, jobs=1)
        parallel = run_sweep(points, jobs=2)
        assert [r.to_dict(include_timing=False) for r in serial] == \
               [r.to_dict(include_timing=False) for r in parallel]

    def test_jobs_env_override_and_cpu_clamp(self, monkeypatch):
        import os

        from repro.experiments.runner import resolve_jobs

        # The REPRO_SWEEP_JOBS override is gone (``--jobs`` / ``jobs=``
        # is the one value): setting it changes nothing.
        monkeypatch.setenv("REPRO_SWEEP_JOBS", "1")
        cpus = max(1, os.cpu_count() or 1)
        # Oversubscription clamps to the machine instead of thrashing.
        assert resolve_jobs(10_000) == cpus
        assert resolve_jobs(1) == 1
        # Non-positive values fail loudly.
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_unordered_system_runs(self):
        r = run_point(TINY.with_overrides({"system": "unordered"}))
        assert r.delivered > 0 and not r.order_checked

    def test_unordered_honors_shared_reliability_knobs(self):
        spec = TINY.with_overrides({"system": "unordered",
                                    "protocol.rto": 80.0,
                                    "protocol.max_retries": 2})
        scenario = build_scenario(spec)
        assert scenario.net.rto == 80.0 and scenario.net.max_retries == 2
        # Ordering-only knobs would be silently ignored -> rejected.
        with pytest.raises(ValueError, match="tau"):
            build_scenario(TINY.with_overrides({"system": "unordered",
                                                "protocol.tau": 2.0}))

    def test_single_ring_system_runs(self):
        r = run_point(TINY.with_overrides({"system": "single_ring"}))
        assert r.delivered > 0 and r.order_violations == 0

    def test_failure_events_fire(self):
        spec = TINY.with_overrides({"duration_ms": 2_500.0})
        spec.faults.actions.append(Crash(at_ms=1_000.0, target="br:1"))
        r = run_point(spec)
        assert r.delivered > 0 and r.order_violations == 0

    def test_token_holder_crash_needs_a_token_passing_system(self):
        spec = TINY.with_overrides({"system": "unordered"})
        spec.faults.actions.append(Crash(at_ms=500.0, target=TOKEN_HOLDER))
        with pytest.raises(ValueError, match="token-passing system"):
            build_scenario(spec)

    def test_recover_rejected_on_token_passing_systems(self):
        # A crash is permanent (a ringnet crash removes the NE from the
        # topology), so a plan has no action that undoes one, on any
        # system.
        data = TINY.to_dict()
        data["faults"] = {"actions": [
            {"kind": "crash", "at_ms": 500.0, "target": "br:1"},
            {"kind": "recover", "at_ms": 900.0, "target": "br:1"}]}
        with pytest.raises(ValueError, match="recover"):
            ExperimentSpec.from_dict(data)
        # The unordered baseline crashes at fabric level and runs on.
        data["faults"]["actions"].pop()
        data["system"] = "unordered"
        r = run_point(ExperimentSpec.from_dict(data))
        assert r.delivered > 0

    def test_mobility_requires_ringnet(self):
        spec = TINY.copy()
        spec.mobility.enabled = True
        spec.system = "unordered"
        with pytest.raises(ValueError, match="mobility"):
            build_scenario(spec)


# ----------------------------------------------------------------------
# Aggregation and export
# ----------------------------------------------------------------------
def _result(point_index: int, replication: int, goodput: float) -> RunResult:
    return RunResult(run_id=f"t#p{point_index}r{replication}", name="t",
                     point_index=point_index, replication=replication,
                     params={"x": point_index}, goodput=goodput,
                     latency={"mean": goodput, "p50": goodput,
                              "p95": goodput, "p99": goodput,
                              "max": goodput})


class TestResults:
    def test_aggregate_math(self):
        rows = aggregate([_result(0, 0, 10.0), _result(0, 1, 14.0),
                          _result(1, 0, 5.0)])
        assert [r["point_index"] for r in rows] == [0, 1]
        g0 = rows[0]["metrics"]["goodput"]
        assert g0["mean"] == pytest.approx(12.0)
        assert g0["std"] == pytest.approx(math.sqrt(8.0))
        assert g0["ci95"] == pytest.approx(1.96 * math.sqrt(8.0 / 2))
        assert rows[1]["metrics"]["goodput"] == {"mean": 5.0, "std": 0.0,
                                                 "ci95": 0.0}

    def test_replication_order_irrelevant(self):
        fwd = aggregate([_result(0, 0, 1.0), _result(0, 1, 2.0),
                         _result(0, 2, 4.0)])
        rev = aggregate([_result(0, 2, 4.0), _result(0, 0, 1.0),
                         _result(0, 1, 2.0)])
        assert fwd == rev

    def test_export_deterministic(self, tmp_path):
        points = expand_grid(TINY, {"workload.rate_per_sec": [10.0, 20.0]},
                             replications=2)
        results = run_sweep(points, jobs=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_json(str(p1), results)
        export_json(str(p2), run_sweep(points, jobs=2))
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["schema"] == "repro.experiments/v1"
        assert doc["n_runs"] == 4 and len(doc["aggregates"]) == 2
        for agg in doc["aggregates"]:
            assert agg["n"] == 2
            assert set(agg["metrics"]["goodput"]) == {"mean", "std", "ci95"}
        # Timing is opt-in (it breaks byte-reproducibility).
        assert "wall_time_s" not in doc["runs"][0]

    def test_export_csv(self, tmp_path):
        rows = aggregate([_result(0, 0, 10.0), _result(1, 0, 5.0)])
        path = tmp_path / "agg.csv"
        export_csv(str(path), rows)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("point_index,name,system,n,param:x,")


# ----------------------------------------------------------------------
# Numpy-free report fallback
# ----------------------------------------------------------------------
class TestReportFallback:
    def test_pure_python_matches_numpy(self, monkeypatch):
        import numpy
        from repro.metrics import report
        values = [5.0, 1.0, 9.5, 2.25, 7.0, 3.0, 8.0]
        with_np = {q: report.percentile(values, q) for q in (0, 50, 95, 99, 100)}
        summary_np = report.summarize(values)
        monkeypatch.setattr(report, "np", None)
        for q, expected in with_np.items():
            assert report.percentile(values, q) == pytest.approx(expected)
        summary_py = report.summarize(values)
        for key in summary_np:
            assert summary_py[key] == pytest.approx(summary_np[key])
        assert numpy is not None  # fallback exercised by patching only

    def test_empty_and_singleton(self, monkeypatch):
        from repro.metrics import report
        monkeypatch.setattr(report, "np", None)
        assert report.percentile([], 50) == 0.0
        assert report.summarize([3.0])["p99"] == 3.0

    def test_numpy_free_simulation(self, monkeypatch):
        # With numpy "absent" everywhere, a whole run must still work
        # (python-Mersenne streams) and stay seed-deterministic.
        from repro.metrics import report
        from repro.sim import rand
        monkeypatch.setattr(report, "np", None)
        monkeypatch.setattr(rand, "np", None)
        a = run_point(TINY).to_dict(include_timing=False)
        b = run_point(TINY).to_dict(include_timing=False)
        assert a == b
        assert a["delivered"] > 0 and a["order_violations"] == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_parse_value_booleans(self):
        from repro.__main__ import _parse_params
        # Python and JSON spellings both become real booleans — a
        # string "False" would truthy-enable boolean protocol knobs.
        assert _parse_params(["protocol.smooth_handoff=True,false"]) == \
            {"protocol.smooth_handoff": [True, False]}
        assert _parse_params(["x=None,null,3,text"]) == \
            {"x": [None, None, 3, "text"]}

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out and "handoff_storm" in out

    def test_run_smoke(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        rc = cli_main(["run", "quickstart", "--duration", "1200",
                       "--quiet", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_runs"] == 1
        assert doc["runs"][0]["delivered"] > 0
        assert "goodput" in capsys.readouterr().out

    def test_sweep_smoke(self, tmp_path, capsys):
        out, csv_out = tmp_path / "s.json", tmp_path / "s.csv"
        rc = cli_main(["sweep", "quickstart",
                       "--param", "workload.rate_per_sec=10,20",
                       "--reps", "2", "--duration", "1200", "--jobs", "1",
                       "--quiet", "--out", str(out), "--csv", str(csv_out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["n_runs"] == 4 and len(doc["aggregates"]) == 2
        assert doc["meta"]["sweep"] == {"workload.rate_per_sec": [10, 20]}
        assert csv_out.exists()


class TestCheckIntegration:
    """--check wires the repro.validation suite into run/sweep."""

    def test_run_point_check_fills_violations(self):
        spec = registry.get("quickstart", **{"duration_ms": 1_200.0,
                                             "warmup_ms": 0.0})
        result = run_point(spec, check=True)
        assert result.violations == []
        assert result.delivered > 0

    def test_run_point_unchecked_omits_violations_key(self):
        spec = registry.get("quickstart", **{"duration_ms": 1_200.0,
                                             "warmup_ms": 0.0})
        result = run_point(spec)
        assert result.violations is None
        assert "violations" not in result.to_dict()

    def test_checked_and_unchecked_runs_agree(self):
        spec = registry.get("quickstart", **{"duration_ms": 1_200.0,
                                             "warmup_ms": 0.0})
        plain = run_point(spec).to_dict(include_timing=False)
        checked = run_point(spec, check=True).to_dict(include_timing=False)
        checked.pop("violations")
        assert checked == plain

    def test_parallel_sweep_carries_check_through_workers(self):
        base = registry.get("quickstart", **{"duration_ms": 1_200.0,
                                             "warmup_ms": 0.0})
        points = expand_grid(base, {"workload.rate_per_sec": [10.0, 20.0]})
        serial = run_sweep(points, jobs=1, check=True)
        parallel = run_sweep(points, jobs=2, check=True)
        assert all(r.violations == [] for r in serial)
        assert [r.to_dict(include_timing=False) for r in serial] \
            == [r.to_dict(include_timing=False) for r in parallel]

    def test_cli_run_check_flag(self, tmp_path, capsys):
        rc = cli_main(["run", "quickstart", "--duration", "1200",
                       "--quiet", "--check"])
        assert rc == 0
        assert "satisfied every protocol invariant" in capsys.readouterr().out

    def test_cli_check_artifact_records_empty_violations(self, tmp_path):
        out = tmp_path / "checked.json"
        rc = cli_main(["run", "quickstart", "--duration", "1200",
                       "--quiet", "--check", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["runs"][0]["violations"] == []
