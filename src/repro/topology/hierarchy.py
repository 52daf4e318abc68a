"""The RingNet hierarchy: rings wired into a tree.

Invariants maintained (checked by :meth:`Hierarchy.validate`):

* exactly one *top ring* (the BR ring, where ordering happens);
* every non-top ring's **leader** is the child of exactly one NE in the
  tier above (the "interacting with upper tiers" role of leaders);
* every AP is the child of exactly one AG;
* candidate-contactor tables (paper §3: "each AP, AG, and BR [has] some
  knowledge of its candidate contactors") are kept per node for the
  self-organization and handoff paths — at most one candidate is *active*
  at a time.

The per-node :class:`NeighborView` is the exact information set the paper
allows an NE to hold: "each NE in the hierarchy only maintains
information about its possible leader, previous, next, parent, and
children neighbors".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.net.address import NodeId
from repro.topology.ring import LogicalRing
from repro.topology.tiers import Tier


@dataclass
class NeighborView:
    """Everything one NE is allowed to know about the topology."""

    current: NodeId
    tier: Tier
    ring_id: Optional[str] = None
    leader: Optional[NodeId] = None
    previous: Optional[NodeId] = None
    next: Optional[NodeId] = None
    parent: Optional[NodeId] = None
    children: List[NodeId] = field(default_factory=list)

    @property
    def is_leader(self) -> bool:
        """Whether this NE leads its ring."""
        return self.leader == self.current

    @property
    def in_top_ring(self) -> bool:
        """Whether this NE sits in the top (ordering) ring."""
        return self.tier is Tier.BR


#: Tier order of a tree link: a parent ranks above its child.
_RANK = {Tier.BR: 3, Tier.AG: 2, Tier.AP: 1, Tier.MH: 0}


class Hierarchy:
    """Mutable ring-of-rings topology."""

    def __init__(self) -> None:
        self.rings: Dict[str, LogicalRing] = {}
        self.top_ring_id: Optional[str] = None
        self.tier_of: Dict[NodeId, Tier] = {}
        self.ring_of: Dict[NodeId, str] = {}
        # parent[x] = NE one tier up whose child x is (ring leaders & APs).
        self.parent: Dict[NodeId, NodeId] = {}
        self.children: Dict[NodeId, List[NodeId]] = {}
        # Candidate contactors (§3): configured, mostly-static fallbacks.
        self.candidate_parents: Dict[NodeId, List[NodeId]] = {}
        self.candidate_neighbors: Dict[NodeId, List[NodeId]] = {}

    # ------------------------------------------------------------------
    # Construction primitives
    # ------------------------------------------------------------------
    def add_ring(self, ring: LogicalRing, tier: Tier, top: bool = False) -> None:
        """Register a ring; each member is recorded at ``tier``."""
        if ring.ring_id in self.rings:
            raise ValueError(f"duplicate ring id {ring.ring_id!r}")
        self.rings[ring.ring_id] = ring
        for node in ring:
            self.tier_of[node] = tier
            self.ring_of[node] = ring.ring_id
        if top:
            if self.top_ring_id is not None:
                raise ValueError("hierarchy already has a top ring")
            self.top_ring_id = ring.ring_id

    def add_node(self, node: NodeId, tier: Tier) -> None:
        """Register a non-ring node (AP or MH tier entity)."""
        if node in self.tier_of:
            raise ValueError(f"duplicate node {node!r}")
        self.tier_of[node] = tier

    def set_parent(self, child: NodeId, parent: NodeId) -> None:
        """Wire a parent→child tree link (leader-of-ring or AP child)."""
        old = self.parent.get(child)
        if old is not None:
            self.children[old].remove(child)
        self.parent[child] = parent
        self.children.setdefault(parent, []).append(child)

    def drop_parent(self, child: NodeId) -> None:
        """Remove the tree link above ``child`` (if any)."""
        old = self.parent.pop(child, None)
        if old is not None:
            self.children[old].remove(child)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def top_ring(self) -> LogicalRing:
        """The single top (ordering) ring."""
        if self.top_ring_id is None:
            raise ValueError("hierarchy has no top ring")
        return self.rings[self.top_ring_id]

    def ring_containing(self, node: NodeId) -> Optional[LogicalRing]:
        """The ring ``node`` belongs to, or None."""
        rid = self.ring_of.get(node)
        return self.rings[rid] if rid is not None else None

    def nodes_of_tier(self, tier: Tier) -> List[NodeId]:
        """All registered node ids of one tier (sorted)."""
        return sorted(n for n, t in self.tier_of.items() if t is tier)

    def neighbor_view(self, node: NodeId) -> NeighborView:
        """Build the paper-limited neighbor view for one NE."""
        tier = self.tier_of[node]
        view = NeighborView(current=node, tier=tier)
        ring = self.ring_containing(node)
        if ring is not None and node in ring:
            view.ring_id = ring.ring_id
            view.leader = ring.leader
            if ring.size > 1:
                view.previous = ring.prev_of(node)
                view.next = ring.next_of(node)
        view.parent = self.parent.get(node)
        view.children = list(self.children.get(node, ()))
        return view

    def subtree(self, root: NodeId) -> List[NodeId]:
        """``root`` plus every NE below it, in depth-first order.

        Descent follows parent→child tree links *and* ring membership:
        only a ring's leader carries the tree link to its parent, so
        reaching a leader pulls in its whole ring, and every member's
        children in turn.  The root's own ring is not expanded: its
        siblings are not its subtree.
        """
        own_ring = self.ring_of.get(root)
        out: List[NodeId] = []
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            out.append(node)
            ring_id = self.ring_of.get(node)
            if ring_id is not None and ring_id != own_ring:
                for member in self.rings[ring_id].members:
                    if member not in seen:
                        seen.add(member)
                        stack.append(member)
            for child in reversed(self.children.get(node, ())):
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return out

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ValueError naming the first broken structural invariant."""
        def check(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"hierarchy invariant broken: {what}")

        check(self.top_ring_id is not None, "no top ring")
        for rid, ring in self.rings.items():
            check(ring.leader in ring, f"ring {rid}: leader not a member")
            for node in ring:
                check(self.ring_of.get(node) == rid,
                      f"{node}: ring_of mismatch")
            if rid != self.top_ring_id:
                check(ring.leader in self.parent,
                      f"ring {rid}: leader {ring.leader} has no parent NE")
        for child, parent in self.parent.items():
            check(child in self.children.get(parent, ()),
                  f"tree link {parent}->{child} not mirrored")
            check(parent in self.tier_of and child in self.tier_of,
                  f"tree link {parent}->{child}: unknown node")
            up, down = self.tier_of[parent], self.tier_of[child]
            # AG→AG only where a ring leader hangs below another ring.
            check(_RANK[up] > _RANK[down] or (
                up is down is Tier.AG
                and self.ring_of.get(parent) != self.ring_of.get(child)),
                f"tree link {parent}->{child}: {up.value} cannot parent "
                f"{down.value}")
        for parent, kids in self.children.items():
            check(len(set(kids)) == len(kids), f"{parent}: duplicate children")
            for child in kids:
                check(self.parent.get(child) == parent,
                      f"tree link {parent}->{child} not mirrored back")
        for ap in self.nodes_of_tier(Tier.AP):
            check(ap in self.parent, f"AP {ap} is orphaned")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Hierarchy rings={len(self.rings)} "
            f"nodes={len(self.tier_of)} top={self.top_ring_id}>"
        )
