"""Conformance of the seven adversarial fault scenarios.

Every new registry scenario must (a) actually exercise its fault plan
inside the trace-identity recording horizon, (b) run the complete
monitor suite — including RecoveryMonitor — to zero violations
at its full duration, and (c) demonstrably stress the fabric (dropped
or burst-lost traffic), so the zero-violation verdict is not vacuous.
"""

import pytest

from repro.experiments import registry
from repro.experiments.runner import (Harvest, build_scenario,
                                      observed_scenario, run_point)

FAULT_SCENARIOS = (
    "split_brain",
    "asymmetric_partition",
    "flapping_backbone",
    "gilbert_elliott_access",
    "degraded_wan",
    "partition_during_handoff_storm",
    "rolling_ap_brownout",
)

#: The recording horizon test_trace_identity.py uses by default; every
#: fault action must activate inside it or the sharded-identity tests
#: would never cover the fault machinery.
RECORD_HORIZON_MS = 2_500.0


def test_registry_grew_to_eighteen():
    # 18 as of the faults PR; 21 with the open-world trio; 22 with
    # open_world_mobile.
    assert len(registry.names()) == 22
    assert set(FAULT_SCENARIOS) <= set(registry.names())


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_fault_plan_fires_inside_recording_horizon(name):
    spec = registry.get(name)
    assert spec.faults, f"{name} carries no fault plan"
    for action in spec.faults:
        assert action.at_ms < RECORD_HORIZON_MS, (
            f"{name}: action at {action.at_ms} ms never fires inside "
            f"the {RECORD_HORIZON_MS} ms trace-identity horizon")


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_checked_run_is_clean_and_fault_actually_bites(name):
    result = run_point(registry.get(name), check=True)
    assert result.violations == [], (
        f"{name}: monitor violations {result.violations[:3]}")
    assert result.delivered > 0


@pytest.mark.parametrize("name", FAULT_SCENARIOS)
def test_overlay_saw_traffic(name):
    scenario = build_scenario(registry.get(name))
    scenario.run()
    overlay = scenario.net.fabric.fault_overlay
    assert overlay is not None
    report = overlay.report()
    if name in ("split_brain", "asymmetric_partition",
                "flapping_backbone", "partition_during_handoff_storm"):
        # Blocking faults tally their drops on the overlay.
        assert sum(report["drops_by_action"].values()) > 0, report
    else:
        # Degradation/burst faults surface as extra net.loss records.
        assert scenario.sim.trace.counts.get("net.loss", 0) > 60
    # Every bounded action expired by the end of the run.
    assert not overlay.active


def test_partition_recovery_reports_heals_on_partition_scenarios():
    spec = registry.get("split_brain")
    harvest = Harvest(spec, check=True)
    with observed_scenario(spec, harvest) as scenario:
        scenario.run()
    assert harvest.result.violations == []
    # The checked run's suite must show the partition was observed and
    # healed (the zero-violation verdict is about a real partition).
    pr = harvest.suite.report()["recovery"]
    assert pr["partitions"] == 1 and pr["heals"] == 1
