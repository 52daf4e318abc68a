"""A logical ring with a leader.

Ring order is the list order; the successor of the last member is the
first.  A ring is valid with a single member (it is then its own next and
previous — the protocol handles this degenerate case by skipping
self-forwarding).  Every ring designates one **leader**, the member that
interacts with the upper tier (receives ordered messages from the parent
NE and injects them into the ring).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.net.address import NodeId


class LogicalRing:
    """Ordered membership of one logical ring."""

    def __init__(self, ring_id: str, members: Sequence[NodeId], leader: Optional[NodeId] = None):
        if not members:
            raise ValueError(f"ring {ring_id!r} needs at least one member")
        if len(set(members)) != len(members):
            raise ValueError(f"ring {ring_id!r} has duplicate members")
        self.ring_id = ring_id
        self._members: List[NodeId] = list(members)
        self.leader: NodeId = leader if leader is not None else self._members[0]
        if self.leader not in self._members:
            raise ValueError(f"leader {self.leader!r} not a member of ring {ring_id!r}")

    # ------------------------------------------------------------------
    @property
    def members(self) -> List[NodeId]:
        """Members in ring order (copy; mutate via remove_member)."""
        return list(self._members)

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self._members)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._members

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------
    def next_of(self, node: NodeId) -> NodeId:
        """Ring successor (the node itself in a singleton ring)."""
        i = self._members.index(node)
        return self._members[(i + 1) % len(self._members)]

    def prev_of(self, node: NodeId) -> NodeId:
        """Ring predecessor (the node itself in a singleton ring)."""
        i = self._members.index(node)
        return self._members[(i - 1) % len(self._members)]

    # ------------------------------------------------------------------
    def remove_member(self, node: NodeId) -> None:
        """Splice ``node`` out; re-elect a leader if it led the ring.

        Leader re-election policy: the removed leader's successor takes
        over (deterministic and local — its neighbors know it).
        """
        if len(self._members) == 1:
            raise ValueError(f"cannot empty ring {self.ring_id!r}; drop the ring instead")
        if node == self.leader:
            self.leader = self.next_of(node)
        self._members.remove(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogicalRing {self.ring_id} n={self.size} leader={self.leader}>"
