"""FaultPlan/FaultAction data layer: validation, round-trips, CLI."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.spec import ExperimentSpec
from repro.__main__ import main as cli_main
from repro.faults.plan import (TOKEN_HOLDER, Crash, Degrade, FaultAction,
                               FaultPlan, Flap, LossBurst, Partition,
                               selector_matches)


# ----------------------------------------------------------------------
# Selectors
# ----------------------------------------------------------------------
def test_selector_exact_and_glob():
    assert selector_matches("br:0", "br:0")
    assert not selector_matches("br:0", "br:1")
    assert selector_matches("ap:0.*", "ap:0.1.2")
    assert not selector_matches("ap:0.*", "ap:1.0.0")
    assert selector_matches("mh:*", "mh:2.1.0.0")


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_partition_validation():
    with pytest.raises(ValueError, match="two groups"):
        Partition(at_ms=1.0, groups=[["br:0"]])
    with pytest.raises(ValueError, match="heal_at_ms"):
        Partition(at_ms=10.0, heal_at_ms=5.0,
                  groups=[["br:0"], ["@rest"]])
    with pytest.raises(ValueError, match="one-way"):
        Partition(at_ms=1.0, direction="a_to_b",
                  groups=[["br:0"], ["br:1"], ["br:2"]])
    with pytest.raises(ValueError, match="direction"):
        Partition(at_ms=1.0, direction="sideways",
                  groups=[["br:0"], ["@rest"]])
    with pytest.raises(ValueError, match="at most one group"):
        Partition(at_ms=1.0, groups=[["@rest"], ["@rest"]])


def test_degrade_validation():
    with pytest.raises(ValueError, match="latency_factor"):
        Degrade(at_ms=1.0, until_ms=2.0, links=[["a", "b"]],
                latency_factor=0.5)
    with pytest.raises(ValueError, match="override"):
        Degrade(at_ms=1.0, until_ms=2.0, links=[["a", "b"]])
    with pytest.raises(ValueError, match="until_ms"):
        Degrade(at_ms=5.0, until_ms=5.0, links=[["a", "b"]], loss=0.1)
    with pytest.raises(ValueError, match="pairs"):
        Degrade(at_ms=1.0, until_ms=2.0, links=[["a", "b", "c"]], loss=0.1)


def test_flap_validation_and_phase():
    with pytest.raises(ValueError, match="duty"):
        Flap(at_ms=0.0, until_ms=10.0, link=["a", "b"], duty=1.0)
    f = Flap(at_ms=100.0, until_ms=900.0, link=["a", "b"],
             period_ms=100.0, duty=0.5)
    assert f.is_up(100.0) and f.is_up(149.9)
    assert not f.is_up(150.0) and not f.is_up(199.9)
    assert f.is_up(200.0)  # next period


def test_loss_burst_validation_and_stationary():
    with pytest.raises(ValueError, match="p_gb"):
        LossBurst(at_ms=0.0, until_ms=1.0, links=[["a", "b"]], p_gb=0.0)
    b = LossBurst(at_ms=0.0, until_ms=1.0, links=[["a", "b"]],
                  p_gb=0.05, p_bg=0.25, loss_good=0.0, loss_bad=0.9)
    assert b.stationary_loss == pytest.approx((0.05 / 0.30) * 0.9)


def test_crash_validation_round_trip_and_describe():
    with pytest.raises(ValueError, match="needs a target"):
        Crash(at_ms=5.0)
    with pytest.raises(ValueError, match="needs a target"):
        FaultAction.from_dict({"kind": "crash", "at_ms": 5.0})
    plan = FaultPlan(actions=[Crash(at_ms=6_000.0, target="ag:1.0"),
                              Crash(at_ms=3_000.0, target=TOKEN_HOLDER)])
    assert plan.to_dict()["actions"][1] == {
        "kind": "crash", "at_ms": 3_000.0, "target": "@token_holder"}
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert [a.dynamic for a in plan] == [False, True]
    assert plan.span() == (3_000.0, None)       # a crash never ends
    assert plan.describe() == [
        " 1. crash      [3000, ∞) ms       @token_holder",
        " 0. crash      [6000, ∞) ms       ag:1.0"]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown fault action kind"):
        FaultAction.from_dict({"kind": "meteor", "at_ms": 1.0})
    with pytest.raises(ValueError, match="unknown Partition keys"):
        FaultAction.from_dict({"kind": "partition", "at_ms": 1.0,
                               "groups": [["a"], ["b"]], "wat": 1})


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
def _sample_plan() -> FaultPlan:
    return FaultPlan(actions=[
        Partition(at_ms=100.0, heal_at_ms=300.0,
                  groups=[["@token_holder_subtree"], ["@rest"]]),
        Degrade(at_ms=50.0, until_ms=400.0, links=[["br:*", "br:*"]],
                loss=0.1, latency_factor=2.0),
        Flap(at_ms=10.0, until_ms=200.0, link=["br:0", "br:1"],
             period_ms=40.0, duty=0.6),
        LossBurst(at_ms=20.0, until_ms=220.0, links=[["ap:*", "mh:*"]],
                  p_gb=0.04, p_bg=0.3, loss_bad=0.8),
    ])


def test_plan_json_roundtrip():
    plan = _sample_plan()
    again = FaultPlan.from_json(plan.to_json())
    assert again == plan
    assert again.to_dict() == plan.to_dict()


def test_plan_span_and_describe():
    plan = _sample_plan()
    assert plan.span() == (10.0, 400.0)
    assert FaultPlan().span() is None
    unhealed = FaultPlan(actions=[
        Partition(at_ms=5.0, groups=[["br:0"], ["@rest"]])])
    assert unhealed.span() == (5.0, None)
    lines = plan.describe()
    assert len(lines) == 4
    assert "flap" in lines[0]  # sorted by activation time


def test_spec_with_faults_roundtrips():
    spec = ExperimentSpec(name="x", faults=_sample_plan())
    again = ExperimentSpec.from_json(spec.to_json())
    assert again == spec
    assert again.faults.actions[0].kind == "partition"


def test_spec_with_overrides_reaches_fault_fields():
    spec = ExperimentSpec(name="x", faults=_sample_plan())
    bumped = spec.with_overrides({"faults.actions.0.heal_at_ms": 500.0})
    assert bumped.faults.actions[0].heal_at_ms == 500.0
    assert spec.faults.actions[0].heal_at_ms == 300.0  # original intact


def test_registry_scenarios_with_plans_roundtrip():
    names = [n for n in registry.names()
             if registry.entry(n).factory().faults]
    assert set(names) >= {"split_brain", "asymmetric_partition",
                          "flapping_backbone", "gilbert_elliott_access",
                          "degraded_wan", "partition_during_handoff_storm",
                          "rolling_ap_brownout"}
    for name in names:
        spec = registry.get(name)
        assert ExperimentSpec.from_json(spec.to_json()) == spec


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_list_names_fault_scenarios(capsys):
    assert cli_main(["list"]) == 0
    plans = {line.split()[0]: line for line in
             capsys.readouterr().out.splitlines() if "action(s)" in line}
    assert "split_brain" in plans and "rolling_ap_brownout" in plans
    assert "quickstart" not in plans


def test_cli_show_timeline_and_json(capsys):
    assert cli_main(["show", "split_brain"]) == 0
    out = capsys.readouterr().out
    assert "partition" in out and "@token_holder_subtree" in out
    assert cli_main(["show", "split_brain", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["actions"][0]["kind"] == "partition"


def test_cli_show_empty_plan(capsys):
    assert cli_main(["show", "quickstart"]) == 0
    assert "empty fault plan" in capsys.readouterr().out


def test_cli_validate_file(tmp_path, capsys):
    good = tmp_path / "plan.json"
    good.write_text(_sample_plan().to_json())
    assert cli_main(["show", str(good)]) == 0
    assert "4 fault action(s)" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"actions": [{"kind": "partition", "at_ms": 1.0,
                      "groups": [["a"]]}]}))
    assert cli_main(["show", str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().err
    # A plan of the wrong shape fails the same check, without a traceback.
    bad.write_text(json.dumps({"actions": 5}))
    assert cli_main(["show", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("INVALID: ")


def test_describe_keeps_plan_indices():
    """Timeline lines lead with the plan index the trace records use,
    even when display order is sorted by activation time."""
    plan = FaultPlan(actions=[
        Degrade(at_ms=2_000.0, until_ms=3_000.0, links=[["a", "b"]],
                loss=0.1),
        Partition(at_ms=1_000.0, heal_at_ms=1_500.0,
                  groups=[["a"], ["@rest"]]),
    ])
    lines = plan.describe()
    assert lines[0].lstrip().startswith("1.") and "partition" in lines[0]
    assert lines[1].lstrip().startswith("0.") and "degrade" in lines[1]


def test_cli_show_unknown_scenario_is_a_clean_error(capsys):
    assert cli_main(["show", "no_such_scenario"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "no_such_scenario" in err
