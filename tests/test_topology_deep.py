"""Tests for sub-tier (deep) hierarchies — paper §3's extension."""

import pytest

from repro.core.protocol import RingNet
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import (HierarchyShape, build_hierarchy,
                                    initial_attachments)
from repro.topology.tiers import Tier


def deep_shape(n_br=2, ring_size=2, depth=2, aps_per_ag=1, mhs_per_ap=1):
    """A nested shape; at depth 1 its one AG level has ``ring_size``
    members too."""
    return HierarchyShape(n_br=n_br, ags_per_br=ring_size,
                          ring_size=ring_size, depth=depth,
                          aps_per_ag=aps_per_ag, mhs_per_ap=mhs_per_ap)


def test_deep_build_validates():
    h = build_hierarchy(deep_shape(depth=3))
    h.validate()
    # Levels: 2 BRs, each with a depth-3 binary ring cascade:
    # level sizes 2, 4, 8 AGs per BR.
    assert len(h.nodes_of_tier(Tier.AG)) == 2 * (2 + 4 + 8)
    # APs only at the deepest level.
    assert len(h.nodes_of_tier(Tier.AP)) == 2 * 8 * 1


def test_deep_ring_leaders_have_parents_at_every_level():
    h = build_hierarchy(deep_shape(ring_size=3))
    for rid, ring in h.rings.items():
        if rid == h.top_ring_id:
            continue
        parent = h.parent[ring.leader]
        assert parent in h.tier_of


def test_deep_attachments_resolve():
    h = build_hierarchy(deep_shape(aps_per_ag=2, mhs_per_ap=2))
    att = initial_attachments(h)
    assert len(att) == len(h.nodes_of_tier(Tier.MH))
    for mh, ap in att.items():
        assert h.tier_of[ap] is Tier.AP
        assert mh in h.tier_of and ap.split(":")[1] in mh


def test_deep_builder_validation():
    with pytest.raises(ValueError):
        deep_shape(depth=0)
    with pytest.raises(ValueError):
        deep_shape(ring_size=0)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("ring_size", [1, 2, 3])
def test_shape_counts_match_the_built_hierarchy(depth, ring_size):
    shape = HierarchyShape(n_br=2, ags_per_br=2, ring_size=ring_size,
                           depth=depth, aps_per_ag=2, mhs_per_ap=3)
    h = build_hierarchy(shape)
    assert shape.n_ag == len(h.nodes_of_tier(Tier.AG))
    assert shape.n_ap == len(h.nodes_of_tier(Tier.AP))
    assert shape.n_mh == len(h.nodes_of_tier(Tier.MH))
    assert shape.total_nes == len(h.tier_of) - shape.n_mh
    width = 2 if depth == 1 else ring_size
    assert all(r.size == width for rid, r in h.rings.items()
               if rid != h.top_ring_id)


def test_ag_candidate_parents_depend_on_depth():
    """Depth 1: the AG's BR, then the other BRs.  Deeper: only the
    parent of the AG's ring."""
    flat = build_hierarchy(deep_shape(n_br=3, depth=1))
    assert flat.candidate_parents["ag:1.0"] == ["br:1", "br:0", "br:2"]
    nested = build_hierarchy(deep_shape(n_br=3, depth=2))
    assert nested.candidate_parents["ag:1.0"] == ["br:1"]
    assert nested.candidate_parents["ag:1.0.1"] == ["ag:1.0"]
    assert nested.parent["ag:1.0.0"] == "ag:1.0"


def run_deep_protocol(depth: int, seed: int = 23):
    sim = Simulator(seed=seed)
    net = RingNet.build(sim, deep_shape(depth=depth))
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=15)
    net.start()
    src.start()
    sim.run(until=6_000)
    src.stop()
    sim.run(until=12_000)
    return net, src, checker


def test_protocol_runs_unchanged_on_deep_hierarchy():
    net, src, checker = run_deep_protocol(depth=3)
    checker.assert_ok()
    counts = [m.delivered_count for m in net.member_hosts()]
    assert min(counts) == src.sent  # full delivery at every depth-3 leaf


def test_deep_hierarchy_total_order_across_subtrees():
    net, src, checker = run_deep_protocol(depth=2)
    checker.assert_ok()
    ref = None
    for m in net.member_hosts():
        stream = [(g, p) for g, p, _ in m.app_log]
        if ref is None:
            ref = stream
        else:
            assert stream == ref  # byte-identical streams everywhere


def test_deep_hierarchy_latency_grows_with_depth():
    from repro.metrics.collectors import LatencyCollector

    def median_latency(depth: int) -> float:
        sim = Simulator(seed=29)
        net = RingNet.build(sim, deep_shape(depth=depth))
        lat = LatencyCollector(sim.trace, warmup=1_500.0)
        src = net.add_source(corresponding="br:0", rate_per_sec=15)
        net.start()
        src.start()
        sim.run(until=6_000)
        return lat.summary()["p50"]

    shallow, deep = median_latency(1), median_latency(4)
    assert deep > shallow  # each extra ring level adds bounded hops
    assert deep < shallow + 40.0  # ...but only linearly, not worse
