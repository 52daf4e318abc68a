"""Reference model of the OrderingToken: the per-hop countdown design.

Each WTSNP entry carries a mutable ``ttl_hops`` that every
:meth:`OrderingToken.age` decrements, :meth:`OrderingToken.snapshot`
rebuilds every entry field by field, and :meth:`OrderingToken.lookup`
scans with :meth:`WTSNPEntry.covers`.  ``repro.core.token`` replaces this
with immutable entries that expire at an absolute hop; the property
tests in ``test_core_token.py`` drive both through the same operations
and require identical observable behaviour.  Kept verbatim apart from
this docstring and the unused ``entries_by_node`` / ``__repr__`` (and
the ``Dict`` import only the former needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.address import NodeId


@dataclass
class WTSNPEntry:
    """One ordered run: local seqs [min_local, max_local] of ``source``
    were assigned global seqs [min_global, max_global] by ``ordering_node``."""

    source: NodeId
    min_local: int
    max_local: int
    ordering_node: NodeId
    min_global: int
    max_global: int
    ttl_hops: int = 64

    def covers(self, ordering_node: NodeId, local_seq: int) -> bool:
        """Whether this entry orders (ordering_node, local_seq)."""
        return (
            self.ordering_node == ordering_node
            and self.min_local <= local_seq <= self.max_local
        )

    def global_for(self, local_seq: int) -> int:
        """Global seq assigned to ``local_seq`` (caller checked covers())."""
        return self.min_global + (local_seq - self.min_local)

    @property
    def count(self) -> int:
        """Number of messages this entry orders."""
        return self.max_local - self.min_local + 1


@dataclass
class OrderingToken:
    """The token circulating the top logical ring.

    ``token_id`` distinguishes regenerated tokens for the Multiple-Token
    rule: ``(epoch, origin)`` where epoch increments at each regeneration.
    """

    gid: str
    next_global_seq: int = 0
    wtsnp: List[WTSNPEntry] = field(default_factory=list)
    token_id: Tuple[int, NodeId] = (0, "")
    hops: int = 0

    # ------------------------------------------------------------------
    def assign(
        self,
        source: NodeId,
        ordering_node: NodeId,
        min_local: int,
        max_local: int,
        ttl_hops: int = 64,
    ) -> WTSNPEntry:
        """Assign global seqs to local run [min_local, max_local].

        Returns the new WTSNP entry; ``next_global_seq`` advances by the
        run length.  This is the *only* operation that mints global
        sequence numbers, which is what makes the order total.
        """
        if max_local < min_local:
            raise ValueError(f"empty run [{min_local}, {max_local}]")
        n = max_local - min_local + 1
        entry = WTSNPEntry(
            source=source,
            min_local=min_local,
            max_local=max_local,
            ordering_node=ordering_node,
            min_global=self.next_global_seq,
            max_global=self.next_global_seq + n - 1,
            ttl_hops=ttl_hops,
        )
        self.wtsnp.append(entry)
        self.next_global_seq += n
        return entry

    def age(self) -> int:
        """One token hop: decrement entry TTLs and prune the expired.

        Returns the number of entries pruned on this hop.
        """
        self.hops += 1
        for e in self.wtsnp:
            e.ttl_hops -= 1
        if self.wtsnp and self.wtsnp[0].ttl_hops <= 0:
            before = len(self.wtsnp)
            self.wtsnp = [e for e in self.wtsnp if e.ttl_hops > 0]
            return before - len(self.wtsnp)
        return 0

    def lookup(self, ordering_node: NodeId, local_seq: int) -> Optional[WTSNPEntry]:
        """Find the entry covering (ordering_node, local_seq), if any."""
        for e in self.wtsnp:
            if e.covers(ordering_node, local_seq):
                return e
        return None

    def snapshot(self) -> "OrderingToken":
        """Independent copy kept as a node's New/Old OrderingToken.

        Field-wise rather than ``copy.deepcopy``: a snapshot is taken on
        every token hop and every regeneration, and deepcopy's generic
        memo machinery dominated that hot path.  ``token_id`` is a tuple
        of immutables and safe to share; WTSNP entries are rebuilt so
        later :meth:`age`/:meth:`assign` calls on either copy never
        alias the other.
        """
        return OrderingToken(
            gid=self.gid,
            next_global_seq=self.next_global_seq,
            wtsnp=[
                WTSNPEntry(
                    source=e.source,
                    min_local=e.min_local,
                    max_local=e.max_local,
                    ordering_node=e.ordering_node,
                    min_global=e.min_global,
                    max_global=e.max_global,
                    ttl_hops=e.ttl_hops,
                )
                for e in self.wtsnp
            ],
            token_id=self.token_id,
            hops=self.hops,
        )


    def __len__(self) -> int:
        return len(self.wtsnp)
