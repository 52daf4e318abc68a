"""Topology maintenance: the mutation side of the membership protocol.

The paper delegates topology upkeep to the membership protocol and keeps
only its *interface* visible to the multicast layer: when the maintenance
algorithm runs it may emit a **Token-Loss** or **Multiple-Token** message
to the multicast protocol (§4.2.1).  This module implements the mutations
(node removal with ring splice and leader re-election, top-ring
split and merge, child re-parenting to candidates) and notifies listeners
with structured :class:`ChangeRecord` events; the protocol layer
translates those into neighbor-pointer updates and token signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.net.address import NodeId
from repro.topology.hierarchy import Hierarchy
from repro.topology.ring import LogicalRing


@dataclass(frozen=True)
class ChangeRecord:
    """One topology mutation, as reported to listeners.

    Kinds: ``ring_splice``, ``leader_change``, ``reparent``,
    ``node_removed``, ``top_ring_split``,
    ``top_ring_merged``, ``ring_dropped``.
    """

    kind: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.details[key]


Listener = Callable[[ChangeRecord], None]


class TopologyMaintenance:
    """Mutates a :class:`Hierarchy` and broadcasts change records."""

    def __init__(self, hierarchy: Hierarchy):
        self.h = hierarchy
        self.listeners: List[Listener] = []
        self.history: List[ChangeRecord] = []

    def subscribe(self, fn: Listener) -> None:
        """Register a change listener (the protocol layer does this)."""
        self.listeners.append(fn)

    def _emit(self, kind: str, **details: Any) -> ChangeRecord:
        rec = ChangeRecord(kind, details)
        self.history.append(rec)
        for fn in self.listeners:
            fn(rec)
        return rec

    # ------------------------------------------------------------------
    # Node removal (failure or leave of an NE)
    # ------------------------------------------------------------------
    def remove_ne(self, node: NodeId) -> List[ChangeRecord]:
        """Remove an NE: splice its ring, re-elect leaders, re-parent kids.

        Children of the removed node are re-parented to the first
        available candidate parent (configured per child); children with
        no surviving candidate are left orphaned and reported.
        """
        records: List[ChangeRecord] = []
        h = self.h
        if node not in h.tier_of:
            raise KeyError(f"unknown node {node!r}")

        ring = h.ring_containing(node)
        was_leader = ring is not None and ring.leader == node

        # Re-parent children first (they need a new upstream).
        for child in list(h.children.get(node, ())):
            new_parent = self._pick_candidate_parent(child, exclude=node)
            h.drop_parent(child)
            if new_parent is not None:
                h.set_parent(child, new_parent)
            records.append(
                self._emit("reparent", child=child, old=node, new=new_parent)
            )

        if ring is not None:
            old_leader = ring.leader
            if ring.size == 1:
                # Ring disappears entirely.
                h.drop_parent(node)
                del h.rings[ring.ring_id]
                if h.top_ring_id == ring.ring_id:
                    h.top_ring_id = None
                records.append(self._emit("ring_dropped", ring=ring.ring_id))
            else:
                ring.remove_member(node)
                records.append(
                    self._emit(
                        "ring_splice", ring=ring.ring_id, removed=node,
                        was_leader=was_leader,
                    )
                )
                if was_leader:
                    # New leader inherits the upstream tree link.
                    parent = h.parent.get(node)
                    h.drop_parent(node)
                    if parent is not None and ring.ring_id != h.top_ring_id:
                        h.set_parent(ring.leader, parent)
                    records.append(
                        self._emit(
                            "leader_change", ring=ring.ring_id,
                            old=old_leader, new=ring.leader,
                        )
                    )
            h.ring_of.pop(node, None)
        else:
            h.drop_parent(node)

        del h.tier_of[node]
        h.children.pop(node, None)
        h.candidate_parents.pop(node, None)
        h.candidate_neighbors.pop(node, None)
        records.append(self._emit("node_removed", node=node, was_leader=was_leader))
        return records

    def _pick_candidate_parent(self, child: NodeId, exclude: NodeId) -> Optional[NodeId]:
        for cand in self.h.candidate_parents.get(child, ()):
            if cand != exclude and cand in self.h.tier_of:
                return cand
        return None

    # ------------------------------------------------------------------
    # Top-ring split / merge (drives Token-Loss / Multiple-Token)
    # ------------------------------------------------------------------
    def split_top_ring(self, group_a: Sequence[NodeId],
                       group_b: Sequence[NodeId]) -> ChangeRecord:
        """Split the top ring into two BR rings (network partition).

        Both halves keep operating; ``group_a``'s ring remains the
        nominal top ring.  The protocol layer reacts by regenerating a
        token in the half that lost it.
        """
        h = self.h
        top = h.top_ring
        members = set(top.members)
        if set(group_a) | set(group_b) != members or set(group_a) & set(group_b):
            raise ValueError("split groups must partition the top ring")
        old_id = top.ring_id
        del h.rings[old_id]
        ring_a = LogicalRing(f"{old_id}.a", list(group_a))
        ring_b = LogicalRing(f"{old_id}.b", list(group_b))
        h.rings[ring_a.ring_id] = ring_a
        h.rings[ring_b.ring_id] = ring_b
        for n in group_a:
            h.ring_of[n] = ring_a.ring_id
        for n in group_b:
            h.ring_of[n] = ring_b.ring_id
        h.top_ring_id = ring_a.ring_id
        return self._emit(
            "top_ring_split", ring_a=ring_a.ring_id, ring_b=ring_b.ring_id,
            group_a=list(group_a), group_b=list(group_b),
        )

    def merge_top_rings(self, ring_a_id: str, ring_b_id: str) -> ChangeRecord:
        """Merge two BR rings back into one top ring.

        Emits ``top_ring_merged``; the protocol layer must then run its
        Multiple-Token resolution because each half may hold a live token.
        """
        h = self.h
        ring_a = h.rings.pop(ring_a_id)
        ring_b = h.rings.pop(ring_b_id)
        merged = LogicalRing("ring:br", ring_a.members + ring_b.members,
                             leader=ring_a.leader)
        h.rings[merged.ring_id] = merged
        for n in merged:
            h.ring_of[n] = merged.ring_id
        h.top_ring_id = merged.ring_id
        return self._emit(
            "top_ring_merged", ring=merged.ring_id,
            from_a=ring_a_id, from_b=ring_b_id, members=merged.members,
        )
