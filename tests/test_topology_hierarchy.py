"""Unit tests for the hierarchy, builder, and maintenance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.net.fabric import Fabric
from repro.sim.engine import Simulator
from repro.topology.builder import (
    HierarchyShape,
    build_hierarchy,
    initial_attachments,
    provision_links,
)
from repro.topology.hierarchy import Hierarchy
from repro.topology.maintenance import TopologyMaintenance
from repro.topology.ring import LogicalRing
from repro.topology.tiers import Tier

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


# ---------------------------------------------------------------------------
# Spec + builder
# ---------------------------------------------------------------------------
def test_spec_counts():
    spec = HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=2)
    assert spec.n_ag == 6
    assert spec.n_ap == 12
    assert spec.n_mh == 24
    assert spec.total_nes == 3 + 6 + 12


def test_spec_validation():
    for field, value in [("n_br", 0), ("depth", 0), ("ags_per_br", 0),
                         ("ring_size", 0), ("aps_per_ag", -1),
                         ("mhs_per_ap", -1), ("idle_per_ap", -1)]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            HierarchyShape(**{field: value})


def test_build_regular_hierarchy_validates():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    h.validate()  # no raise


def test_top_ring_is_br_ring():
    h = build_hierarchy(HierarchyShape(n_br=4, ags_per_br=3))
    assert h.top_ring.size == 4
    assert all(h.tier_of[n] is Tier.BR for n in h.top_ring)


def test_ag_ring_leaders_are_br_children():
    h = build_hierarchy(HierarchyShape(n_br=2, ags_per_br=3))
    for rid, ring in h.rings.items():
        if rid == h.top_ring_id:
            continue
        parent = h.parent[ring.leader]
        assert h.tier_of[parent] is Tier.BR


def test_aps_have_ag_parents():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    for ap in h.nodes_of_tier(Tier.AP):
        assert h.tier_of[h.parent[ap]] is Tier.AG


def test_mh_count_and_initial_attachments():
    spec = HierarchyShape(n_br=2, ags_per_br=2, aps_per_ag=2, mhs_per_ap=3)
    h = build_hierarchy(spec)
    att = initial_attachments(h)
    assert len(h.nodes_of_tier(Tier.MH)) == spec.n_mh
    assert len(att) == spec.n_mh
    assert all(h.tier_of[ap] is Tier.AP for ap in att.values())
    assert att["mh:1.0.1.2"] == "ap:1.0.1"
    assert list(att) == [n for n, t in h.tier_of.items() if t is Tier.MH]


def test_candidate_parents_configured():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    for ap in h.nodes_of_tier(Tier.AP):
        cands = h.candidate_parents[ap]
        assert cands[0] == h.parent[ap]  # primary first
        assert len(cands) >= 2


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
BROKEN = {
    "no top ring": lambda h: setattr(h, "top_ring_id", None),
    "leader not a member": lambda h: setattr(h.rings["ring:ag.0"], "leader",
                                             "ag:9.9"),
    "ring_of mismatch": lambda h: h.ring_of.__setitem__("ag:0.1",
                                                        "ring:ag.1"),
    "has no parent NE": lambda h: h.drop_parent("ag:0.0"),
    "ap:0.0.0 not mirrored$": lambda h: h.children["ag:0.0"].remove(
        "ap:0.0.0"),
    "not mirrored back": lambda h: h.children["ag:0.1"].append("ap:0.0.0"),
    "duplicate children": lambda h: h.children["ag:0.0"].append("ap:0.0.0"),
    "unknown node": lambda h: h.set_parent("ap:0.0.0", "ag:9.9"),
    "ap cannot parent ag": lambda h: h.set_parent("ag:1.0", "ap:0.0.0"),
    "br cannot parent br": lambda h: h.set_parent("br:1", "br:0"),
    # AG→AG is a nested ring's leader below its parent, never a sibling.
    "ag cannot parent ag": lambda h: h.set_parent("ag:0.1", "ag:0.0"),
    "orphaned": lambda h: h.drop_parent("ap:0.0.0"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN))
def test_validate_names_each_broken_invariant(broken):
    h = build_hierarchy(HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=1,
                                       mhs_per_ap=0))
    BROKEN[broken](h)
    with pytest.raises(ValueError, match=broken):
        h.validate()


def test_validate_raises_under_python_O(tmp_path):
    """A ValueError, not an assert: ``python -O`` still validates."""
    probe = ("from repro.topology.builder import HierarchyShape, "
             "build_hierarchy\n"
             "h = build_hierarchy(HierarchyShape(mhs_per_ap=0))\n"
             "h.set_parent('ap:0.0.0', 'ap:0.0.1')\n"
             "try:\n"
             "    h.validate()\n"
             "except ValueError as exc:\n"
             "    print(__debug__, exc)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-O", "-c", probe],
                          cwd=str(tmp_path), env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.startswith("False ")
    assert "ap cannot parent ap" in proc.stdout


@pytest.mark.parametrize("name", registry.names())
def test_every_registry_shape_validates(name):
    build_hierarchy(registry.get(name).hierarchy).validate()


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_tree_links_follow_tier_order(depth):
    h = build_hierarchy(HierarchyShape(n_br=2, ags_per_br=2, ring_size=2,
                                       depth=depth, aps_per_ag=1))
    h.validate()
    links = {(h.tier_of[p], h.tier_of[c]) for c, p in h.parent.items()}
    expected = {(Tier.BR, Tier.AG), (Tier.AG, Tier.AP)}
    if depth > 1:
        expected.add((Tier.AG, Tier.AG))
    assert links == expected


# ---------------------------------------------------------------------------
# Neighbor views
# ---------------------------------------------------------------------------
def test_neighbor_view_top_ring_member():
    h = build_hierarchy(HierarchyShape(n_br=3, ags_per_br=3))
    v = h.neighbor_view("br:1")
    assert v.in_top_ring
    assert v.previous == "br:0" and v.next == "br:2"
    assert v.leader == "br:0"
    assert not v.is_leader


def test_neighbor_view_leader_flag():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    v = h.neighbor_view("br:0")
    assert v.is_leader


def test_neighbor_view_ap_has_parent_no_ring():
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    v = h.neighbor_view("ap:0.0.0")
    assert v.ring_id is None
    assert v.parent == "ag:0.0"
    assert v.next is None


def test_neighbor_view_children():
    h = build_hierarchy(HierarchyShape(ags_per_br=3, aps_per_ag=3))
    v = h.neighbor_view("ag:0.0")
    assert len(v.children) == 3


# ---------------------------------------------------------------------------
# Link provisioning
# ---------------------------------------------------------------------------
def test_provision_links_covers_adjacencies():
    sim = Simulator()
    fabric = Fabric(sim)
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    provision_links(fabric, h)
    # Every ring adjacency has a link.
    for ring in h.rings.values():
        for node in ring:
            if ring.size > 1:
                assert fabric.link(node, ring.next_of(node)) is not None
    # Every tree link exists.
    for child, parent in h.parent.items():
        assert fabric.link(child, parent) is not None


def test_provision_links_idempotent():
    sim = Simulator()
    fabric = Fabric(sim)
    h = build_hierarchy(HierarchyShape(ags_per_br=3))
    n1 = provision_links(fabric, h)
    n2 = provision_links(fabric, h)
    assert n1 > 0 and n2 == 0


# ---------------------------------------------------------------------------
# Maintenance
# ---------------------------------------------------------------------------
def small_hierarchy() -> Hierarchy:
    return build_hierarchy(HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=1,
                                          mhs_per_ap=0))


def test_remove_non_leader_ring_member():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    maint.remove_ne("br:1")
    assert "br:1" not in h.top_ring
    assert h.top_ring.size == 2
    h.validate()


def test_remove_leader_reelects_and_emits():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    records = maint.remove_ne("br:0")
    kinds = [r.kind for r in records]
    assert "leader_change" in kinds
    assert h.top_ring.leader == "br:1"
    h.validate()


def test_remove_ag_leader_moves_tree_link():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    ring = h.rings["ring:ag.0"]
    old_leader = ring.leader
    br = h.parent[old_leader]
    maint.remove_ne(old_leader)
    assert h.parent[ring.leader] == br
    h.validate()


def test_remove_reparents_children_to_candidates():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    ap = "ap:0.0.0"
    old_parent = h.parent[ap]
    records = maint.remove_ne(old_parent)
    new_parent = h.parent.get(ap)
    assert new_parent is not None and new_parent != old_parent
    assert any(r.kind == "reparent" and r["child"] == ap for r in records)


def test_remove_unknown_node_raises():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    with pytest.raises(KeyError):
        maint.remove_ne("br:99")


def test_listeners_receive_records():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    seen = []
    maint.subscribe(seen.append)
    maint.remove_ne("br:2")
    assert seen
    assert seen[-1].kind == "node_removed"


def test_split_and_merge_top_ring():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    maint.split_top_ring(["br:0", "br:1"], ["br:2"])
    assert h.top_ring.size == 2
    assert len(h.rings) == 2 + 3  # 2 BR halves + 3 AG rings (one per BR)
    maint.merge_top_rings("ring:br.a", "ring:br.b")
    assert h.top_ring.size == 3
    h.validate()


def test_split_requires_partition():
    h = small_hierarchy()
    maint = TopologyMaintenance(h)
    with pytest.raises(ValueError):
        maint.split_top_ring(["br:0"], ["br:1"])  # br:2 unassigned
    with pytest.raises(ValueError):
        maint.split_top_ring(["br:0", "br:1"], ["br:1", "br:2"])  # overlap


def test_singleton_ring_removal_drops_ring():
    h = Hierarchy()
    h.add_ring(LogicalRing("ring:solo", ["br:0"]), Tier.BR, top=True)
    maint = TopologyMaintenance(h)
    records = maint.remove_ne("br:0")
    assert any(r.kind == "ring_dropped" for r in records)
    assert h.top_ring_id is None
