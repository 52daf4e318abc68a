"""Tests for source fleets, churn, and the registry's canned scenarios."""

import pytest

from repro.experiments import build_scenario, registry, run_point
from repro.metrics.order_checker import OrderChecker
from repro.topology.tiers import Tier
from repro.workloads.churn import ChurnDriver
from repro.workloads.generators import uniform_sources

from helpers import small_net


# ---------------------------------------------------------------------------
# SourceFleet
# ---------------------------------------------------------------------------
def test_uniform_sources_round_robin_distinct_nodes():
    sim, net = small_net(n_br=3)
    fleet = uniform_sources(net, s=3, rate_per_sec=10)
    assert len(fleet) == 3
    assert len({src.corresponding for src in fleet}) == 3


def test_uniform_sources_respects_s_le_r():
    sim, net = small_net(n_br=2)
    with pytest.raises(ValueError):
        uniform_sources(net, s=3, rate_per_sec=10)


def test_fleet_aggregate_rate():
    sim, net = small_net(n_br=3)
    fleet = uniform_sources(net, s=2, rate_per_sec=15)
    assert fleet.aggregate_rate_per_sec == 30


def test_fleet_start_stop_and_stagger():
    sim, net = small_net(n_br=3)
    fleet = uniform_sources(net, s=2, rate_per_sec=10)
    net.start()
    fleet.start(stagger=5.0)
    sim.run(until=2_000)
    fleet.stop()
    total = fleet.total_sent
    # Staggering shifts the second source's sends by 5 ms, so it may fit
    # one message fewer in the window.
    assert 38 <= total <= 40
    sim.run(until=3_000)
    assert fleet.total_sent == total


# ---------------------------------------------------------------------------
# Churn
# ---------------------------------------------------------------------------
def test_churn_driver_joins_and_leaves():
    sim, net = small_net(mhs_per_ap=1)
    net.start()
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    churn = ChurnDriver(net, aps, mean_interval_ms=100.0, min_members=2)
    churn.start()
    sim.run(until=5_000)
    churn.stop()
    assert churn.joins > 5
    assert churn.leaves > 0
    assert len(churn.log) == churn.joins + churn.leaves
    assert len(net.member_hosts()) >= 2  # floor respected


def test_churn_preserves_total_order():
    sim, net = small_net(mhs_per_ap=1, seed=17)
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    churn = ChurnDriver(net, aps, mean_interval_ms=200.0)
    churn.start()
    sim.run(until=6_000)
    checker.assert_ok()


def test_churn_validation():
    sim, net = small_net()
    with pytest.raises(ValueError):
        ChurnDriver(net, ["ap:0.0.0"], mean_interval_ms=0)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
def test_conference_scenario_runs_and_orders():
    result = run_point(registry.get("conference", seed=3, duration_ms=4_000.0,
                                    warmup_ms=0.0))
    assert result.order_checked and result.order_violations == 0
    assert result.delivered > 0
    assert result.sent > 0


def test_campus_scenario_moves_hosts():
    spec = registry.get("campus", **{"seed": 3, "duration_ms": 6_000.0,
                                     "warmup_ms": 0.0,
                                     "mobility.mean_dwell_ms": 800.0})
    result = run_point(spec)
    assert result.order_checked and result.order_violations == 0
    assert result.handoffs > 0


def test_scenario_run_until_override():
    sc = build_scenario(registry.get("conference", seed=3))
    sc.run(until=1_000)
    assert sc.sim.now == 1_000
