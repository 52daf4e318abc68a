"""Topology partitioning for sharded runs.

The partition unit is a **subtree** of the RingNet hierarchy — the
paper's self-similarity ("if we consider each logical ring as one node,
the RingNet hierarchy becomes a tree") means any closed subtree keeps
the chatty tree traffic (parent→child delivery, membership relay, path
reservations) shard-local, while cross-shard traffic rides provisioned
fabric links with positive latency — exactly what gives the
conservative runtime its lookahead.

:func:`partition_hierarchy` is the one algorithm: greedy LPT over
whole BR subtrees (heaviest first onto the lightest shard) and, when
the resulting max/min shard weight exceeds :data:`MAX_IMBALANCE` (or a
shard would sit empty), every BR subtree is split one ring level down
into the BR core plus one unit per child-ring member and LPT re-runs.
On the symmetric topologies this turns a 2.0x max/min event split into
~1.0x without giving up co-location of any subtree's traffic.

Ownership is static for the whole run: an MH stays on the shard of its
initial AP, and one that roams under another shard's AP is served over
the cut.  The plan is deterministic — every worker and the coordinator
derive it independently from identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.net.address import NodeId
from repro.topology.builder import build_hierarchy, initial_attachments
from repro.topology.hierarchy import Hierarchy
from repro.topology.tiers import Tier


class PartitionError(ValueError):
    """Raised when a topology cannot be partitioned as requested."""


@dataclass(frozen=True)
class PartitionPlan:
    """A complete shard assignment for one built topology.

    Attributes
    ----------
    n_shards:
        Requested shard count.  Shards may be empty when the topology
        has fewer partition units than shards (they simply idle).
    shard_of:
        Node id → shard index, covering every NE and every initially
        attached MH.  Entities created during the run (sources, churn
        MHs) are adopted into the map by the runtime via
        :meth:`repro.shard.context.ShardContext.adopt`.
    subtree_shard:
        Unit root id → shard index (the assignment's coarse form).
        Roots are BRs for coarse plans; a split plan adds the child
        subtree roots carved out one ring level down.
    weights:
        Node count per shard (NEs + MHs), the balance the LPT greedy
        optimized.
    """

    n_shards: int
    shard_of: Dict[NodeId, int] = field(default_factory=dict)
    subtree_shard: Dict[NodeId, int] = field(default_factory=dict)
    weights: Tuple[int, ...] = ()

    def shard(self, node: NodeId) -> int:
        """Shard index of ``node`` (KeyError for unknown nodes)."""
        return self.shard_of[node]

    def nodes_of(self, shard: int) -> List[NodeId]:
        """All assigned nodes of one shard (sorted, for stable output).

        The per-shard lists are built once on first use — a single pass
        over ``shard_of`` — instead of rescanning the full map per
        shard (O(N·S) across the partition CLI and tests).
        """
        cache = self.__dict__.get("_nodes_cache")
        if cache is None:
            buckets: List[List[NodeId]] = [[] for _ in range(self.n_shards)]
            for node, s in self.shard_of.items():
                buckets[s].append(node)
            cache = tuple(tuple(sorted(b)) for b in buckets)
            object.__setattr__(self, "_nodes_cache", cache)
        return list(cache[shard])

    def to_dict(self) -> Dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "shard_of": dict(self.shard_of),
            "subtree_shard": dict(self.subtree_shard),
            "weights": list(self.weights),
        }


# ----------------------------------------------------------------------
# Partition units
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Unit:
    """One indivisible assignment unit: a subtree root, its NEs, its MHs."""

    root: NodeId
    nodes: Tuple[NodeId, ...]
    mhs: Tuple[NodeId, ...]

    @property
    def weight(self) -> int:
        return len(self.nodes) + len(self.mhs)


def _weigh_mhs(
    units: Sequence[Tuple[NodeId, List[NodeId]]],
    h: Hierarchy,
    attachments: Mapping[NodeId, NodeId],
) -> List[_Unit]:
    """Weigh every initially attached MH into the unit owning its AP."""
    unit_of_ap: Dict[NodeId, int] = {}
    for idx, (_, nodes) in enumerate(units):
        for node in nodes:
            unit_of_ap[node] = idx
    mhs: List[List[NodeId]] = [[] for _ in units]
    for mh, ap in attachments.items():
        idx = unit_of_ap.get(ap)
        if idx is None:
            raise PartitionError(f"MH {mh!r} attaches to unknown AP {ap!r}")
        mhs[idx].append(mh)
    unplaced = [mh for mh in h.nodes_of_tier(Tier.MH) if mh not in attachments]
    if unplaced:
        raise PartitionError(
            f"MHs without an initial attachment cannot be placed: {unplaced}")
    return [_Unit(root, tuple(nodes), tuple(sorted(ms)))
            for (root, nodes), ms in zip(units, mhs)]


def _br_units(
    h: Hierarchy,
    attachments: Mapping[NodeId, NodeId],
) -> List[_Unit]:
    """One unit per top-ring member: the whole BR subtree."""
    pairs = [(br, h.subtree(br)) for br in h.top_ring.members]
    return _weigh_mhs(pairs, h, attachments)


def _split_unit(h: Hierarchy,
                unit: _Unit) -> List[Tuple[NodeId, List[NodeId]]]:
    """Split one BR unit one ring level down into ``(root, nodes)`` pairs.

    Yields the BR core (the root plus anything not below a child ring)
    and one pair per child-ring member's closed subtree.  A root with
    no child ring comes back whole — there is nothing to split.
    """
    top = h.top_ring_id
    child_roots: List[NodeId] = []
    for child in h.children.get(unit.root, ()):
        ring_id = h.ring_of.get(child)
        if ring_id is None or ring_id == top:
            continue
        for member in h.rings[ring_id].members:
            if member not in child_roots:
                child_roots.append(member)
    pairs = [(root, h.subtree(root)) for root in child_roots]
    covered = {node for _, nodes in pairs for node in nodes}
    core = [n for n in unit.nodes if n not in covered]
    return [(unit.root, core)] + pairs


def _lpt_assign(units: Sequence[_Unit], n_shards: int) -> PartitionPlan:
    """Greedy LPT: heaviest unit first onto the lightest shard.

    Deterministic: ties break on unit root id, then on shard index.
    """
    order = sorted(units, key=lambda u: (-u.weight, u.root))
    loads = [0] * n_shards
    shard_of: Dict[NodeId, int] = {}
    subtree_shard: Dict[NodeId, int] = {}
    for unit in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += unit.weight
        subtree_shard[unit.root] = target
        for node in unit.nodes:
            shard_of[node] = target
        for mh in unit.mhs:
            shard_of[mh] = target
    return PartitionPlan(
        n_shards=n_shards,
        shard_of=shard_of,
        subtree_shard=subtree_shard,
        weights=tuple(loads),
    )


#: Largest max/min shard weight a BR-granular plan may have and be kept.
MAX_IMBALANCE = 1.25


def partition_hierarchy(
    h: Hierarchy,
    n_shards: int,
    attachments: Optional[Mapping[NodeId, NodeId]] = None,
) -> PartitionPlan:
    """Partition a hierarchy into ``n_shards`` groups of subtrees.

    A BR-granular LPT plan is kept when its max/min shard weight stays
    within :data:`MAX_IMBALANCE` — it has the best locality (no tree
    link is ever cut).  When it exceeds the threshold, or leaves shards
    empty, every BR unit is split one ring level down (BR core + one
    unit per child-ring member) and LPT re-runs over the finer units.
    New cut edges are provisioned WIRED tree/ring links with positive
    latency, so the lookahead bound survives.  Any total, co-located
    assignment is correct — traces are byte-identical at every shard
    count — so the split is purely a load/locality tradeoff.

    ``attachments`` maps each initial MH to its AP; every MH is placed
    on its AP's shard (the co-location invariant the partition tests
    pin).  MHs present in the hierarchy but absent from ``attachments``
    are rejected — an unplaced MH would make ownership ambiguous.
    """
    if n_shards < 1:
        raise PartitionError(f"n_shards must be >= 1, got {n_shards}")
    if h.top_ring_id is None:
        raise PartitionError("hierarchy has no top ring to partition")
    attachments = dict(attachments or {})
    units = _br_units(h, attachments)
    coarse = _lpt_assign(units, n_shards)
    lo, hi = min(coarse.weights), max(coarse.weights)
    if lo > 0 and hi <= MAX_IMBALANCE * lo:
        return coarse
    fine = [pair for unit in units for pair in _split_unit(h, unit)]
    return _lpt_assign(_weigh_mhs(fine, h, attachments), n_shards)


def partition_spec(spec, n_shards: int) -> PartitionPlan:
    """Build the topology a spec describes and partition it.

    Only the full RingNet system is shardable — the baselines have no
    hierarchy to cut.
    """
    if spec.system != "ringnet":
        raise PartitionError(
            f"sharded execution supports the ringnet system, "
            f"not {spec.system!r}")
    h = build_hierarchy(spec.hierarchy)
    return partition_hierarchy(h, n_shards, initial_attachments(h))


# ----------------------------------------------------------------------
# Cut analysis (computed against the *built* fabric)
# ----------------------------------------------------------------------
def cut_edges(fabric, plan: PartitionPlan) -> List[Tuple[NodeId, NodeId, float]]:
    """``(a, b, latency)`` for every fabric link crossing shards.

    Endpoints the plan does not cover (sources adopted later, churn
    MHs) are resolved through the fabric's shard context when present;
    at plan time only provisioned NE/MH links exist, which is exactly
    the set the lookahead must bound.
    """
    out: List[Tuple[NodeId, NodeId, float]] = []
    for link in fabric.links:
        sa = plan.shard_of.get(link.a)
        sb = plan.shard_of.get(link.b)
        if sa is None or sb is None or sa == sb:
            continue
        out.append((link.a, link.b, link.spec.latency))
    return out


def lookahead_of(cut: Sequence[Tuple[NodeId, NodeId, float]],
                 wireless_floor: Optional[float] = None) -> float:
    """Conservative window width: the smallest cross-shard latency.

    Every cross-shard effect rides a message over a cut link, so
    nothing sent at time ``t`` can matter to another shard before
    ``t + lookahead`` — the bounded-lag guarantee the lock-step rounds
    rest on.  ``wireless_floor`` — the facade's wireless spec latency —
    caps it, because the one kind of link minted mid-run is an MH↔AP
    attachment at exactly that spec, and a roaming MH can wire any two
    shards together; with the cap the lookahead holds for the whole
    run.  A non-positive latency would break the bound, so it is a hard
    error, not a warning.  An empty cut with no floor (everything on
    one shard) has unbounded lookahead.
    """
    lats = [lat for _, _, lat in cut]
    if wireless_floor is not None:
        lats.append(wireless_floor)
    lookahead = min(lats, default=float("inf"))
    if not lookahead > 0.0:
        offenders = [(a, b) for a, b, lat in cut if not lat > 0.0]
        raise PartitionError(
            f"non-positive latency breaks the lookahead bound: cut links "
            f"{offenders}, wireless floor {wireless_floor}")
    return lookahead
