"""Partition invariants: cut edges, balance, MH co-location.

These pin the properties the conservative runtime's correctness rests
on: every cross-shard edge has finite positive latency (the lookahead
exists), shards are as balanced as indivisible BR subtrees allow, and
every MH lands on its AP's shard.
"""

import json
import os

import pytest

from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.shard.partition import (PartitionError, cut_edges, lookahead_of,
                                   partition_hierarchy, partition_spec)
from repro.topology.builder import (HierarchyShape, build_hierarchy,
                                    initial_attachments)

ALL_SCENARIOS = registry.names()


def _build_topology(spec):
    """The hierarchy + initial attachments a spec's build would use."""
    h = build_hierarchy(spec.hierarchy)
    return h, initial_attachments(h)


# ----------------------------------------------------------------------
# Cut-edge invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
@pytest.mark.parametrize("k", [2, 4])
def test_cut_edges_have_finite_positive_latency(name, k):
    spec = registry.get(name)
    plan = partition_spec(spec, k)
    scenario = build_scenario(spec)
    cut = cut_edges(scenario.net.fabric, plan)
    for a, b, latency in cut:
        assert latency > 0.0, f"cut edge {a}<->{b} has latency {latency}"
        assert latency != float("inf")
    # With >= 2 BR subtrees spread over >= 2 shards the top ring itself
    # is cut, so a lookahead must exist and bound every cut edge.
    if len({plan.shard_of[br] for br in plan.subtree_shard}) > 1:
        lookahead = lookahead_of(cut)
        assert 0.0 < lookahead < float("inf")
        assert all(lat >= lookahead for _, _, lat in cut)


def test_lookahead_rejects_zero_latency_cut():
    with pytest.raises(PartitionError):
        lookahead_of([("a", "b", 0.0)])


def test_empty_cut_means_unbounded_lookahead():
    assert lookahead_of([]) == float("inf")


# ----------------------------------------------------------------------
# Balance
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_shards_within_one_subtree(name, k):
    """LPT property: no shard exceeds the lightest by more than the
    heaviest indivisible unit (a full BR subtree with its MHs).

    A greedy assignment never places a subtree on a shard that is not
    currently lightest, so max_load - min_load <= heaviest subtree —
    the classic LPT imbalance bound, checked against the real subtree
    weights recovered from the plan.
    """
    spec = registry.get(name)
    plan = partition_spec(spec, k)
    assert len(plan.weights) == k
    assert sum(plan.weights) == len(plan.shard_of)

    # Recompute each subtree's true weight from the topology: its NEs
    # plus the MHs initially attached under it.
    h, attach = _build_topology(spec)
    subtree_weight = {}
    for br in h.top_ring.members:
        nodes = set(h.subtree(br))
        mhs = sum(1 for mh, ap in attach.items() if ap in nodes)
        subtree_weight[br] = len(nodes) + mhs
    assert sum(subtree_weight.values()) == sum(plan.weights)
    loads = list(plan.weights)
    assert max(loads) - min(loads) <= max(subtree_weight.values())


def test_deterministic_assignment():
    spec = registry.get("quickstart")
    plans = [partition_spec(spec, 3).to_dict() for _ in range(3)]
    assert plans[0] == plans[1] == plans[2]


#: Every registry scenario's plan at K = 2, 4 and 8, keyed "name@K":
#: a refactor of the partitioner must not move one node.
PINNED_PLANS = os.path.join(os.path.dirname(__file__), "data",
                            "partition_plans.json")


def test_every_registry_plan_matches_its_pinned_copy():
    with open(PINNED_PLANS) as f:
        pinned = json.load(f)
    assert len(pinned) == 3 * len(ALL_SCENARIOS)
    for name in ALL_SCENARIOS:
        for k in (2, 4, 8):
            plan = partition_spec(registry.get(name), k)
            assert plan.to_dict() == pinned[f"{name}@{k}"], (name, k)


# ----------------------------------------------------------------------
# MH -> AP co-location
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_mh_colocated_with_initial_ap(name):
    spec = registry.get(name)
    plan = partition_spec(spec, 4)
    h, attach = _build_topology(spec)
    assert attach, f"{name}: expected initial attachments"
    for mh, ap in attach.items():
        assert plan.shard_of[mh] == plan.shard_of[ap], \
            f"{mh} not co-located with its AP {ap}"
    # Every NE and every MH is covered by the plan.
    for node, tier in h.tier_of.items():
        assert node in plan.shard_of


# ----------------------------------------------------------------------
# Sub-subtree splits and the run's lookahead
# ----------------------------------------------------------------------
def test_skewed_plan_splits_to_fill_every_shard():
    """Whole-subtree assignment would leave a shard empty (quickstart:
    3 BR subtrees on 4 shards), so the plan splits subtrees one ring
    level down and fills every shard."""
    spec = registry.get("quickstart")
    h, _ = _build_topology(spec)
    assert len(h.top_ring.members) == 3
    plan = partition_spec(spec, 4)
    assert min(plan.weights) > 0
    # More assignment units than BR subtrees: the split happened.
    assert len(plan.subtree_shard) > 3
    assert set(h.tier_of) <= set(plan.shard_of)  # same universe


def test_lookahead_of_bounds_every_cut_edge():
    spec = registry.get("quickstart")
    plan = partition_spec(spec, 4)
    scenario = build_scenario(spec)
    wireless = scenario.net.wireless
    cut = cut_edges(scenario.net.fabric, plan)
    lookahead = lookahead_of(cut, wireless.latency)
    # Every provisioned cut edge is bounded by it, and the wireless
    # floor caps it (mid-run MH links can join any two shards).
    assert 0.0 < lookahead <= wireless.latency
    assert all(lat >= lookahead for _, _, lat in cut)
    assert lookahead == min([lat for _, _, lat in cut] + [wireless.latency])
    assert lookahead_of(cut, 0.5) == 0.5
    assert lookahead_of([], 3.0) == 3.0
    for bad in (0.0, -1.0):
        with pytest.raises(PartitionError):
            lookahead_of(cut, bad)
        with pytest.raises(PartitionError):
            lookahead_of(cut + [("a", "b", bad)], wireless.latency)


def test_nodes_of_matches_shard_map():
    spec = registry.get("quickstart")
    plan = partition_spec(spec, 3)
    seen = set()
    for shard in range(3):
        nodes = plan.nodes_of(shard)
        assert len(nodes) == plan.weights[shard]
        assert all(plan.shard_of[n] == shard for n in nodes)
        seen.update(nodes)
    assert seen == set(plan.shard_of)


# ----------------------------------------------------------------------
# Error cases
# ----------------------------------------------------------------------
def test_baseline_systems_are_rejected():
    spec = registry.get("ring_vs_baselines", system="single_ring")
    with pytest.raises(PartitionError):
        partition_spec(spec, 2)


def test_bad_shard_count_rejected():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    with pytest.raises(PartitionError):
        partition_hierarchy(h, 0, {})


def test_unplaced_mh_rejected():
    h = build_hierarchy(HierarchyShape(ags_per_br=3, mhs_per_ap=1))
    with pytest.raises(PartitionError):
        partition_hierarchy(h, 2, {})  # MHs exist but no attachments
