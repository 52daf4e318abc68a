"""The OrderingToken and its working table of sequence-number pairs.

Paper §4.1, "Data Structure of Tokens": the token carries the group id,
``NextGlobalSeqNo``, and the ``WTSNP`` — a table of
``(SourceNode, MinLocalSeqNo, MaxLocalSeqNo, OrderingNode,
MinGlobalSeqNo, MaxGlobalSeqNo)`` entries, each recording that a
contiguous run of one source's local sequence numbers was assigned a
contiguous run of global sequence numbers.

Entries age out after a bounded number of token hops.  The Order-
Assignment algorithm only ever consults a node's two retained snapshots
(New/Old OrderingToken), and a node refreshes its snapshot every full
rotation, so a TTL of ≥ 2 rotations guarantees no node misses an entry.
:meth:`OrderingToken.assign` stamps a new entry with the absolute token
hop it expires at (``hops`` now + TTL), and :meth:`OrderingToken.age`
advances ``hops`` without touching the entries.  Entries are immutable,
so a token, its snapshots and a token regenerated from one share them:
:meth:`OrderingToken.snapshot` copies the list, not the entries, and a
hop builds no entry however deep the WTSNP is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.net.address import NodeId


@dataclass(frozen=True, slots=True)
class WTSNPEntry:
    """One ordered run: local seqs [min_local, max_local] of ``source``
    were assigned global seqs [min_global, max_global] by ``ordering_node``;
    pruned once the token's ``hops`` reaches ``expires_at``."""

    source: NodeId
    min_local: int
    max_local: int
    ordering_node: NodeId
    min_global: int
    max_global: int
    expires_at: int

    def global_for(self, local_seq: int) -> int:
        """Global seq assigned to ``local_seq`` (caller found it by lookup)."""
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

        Returns the new WTSNP entry, which expires ``ttl_hops`` hops from
        now; ``next_global_seq`` advances by the run length.  This is the
        *only* operation that mints global sequence numbers, which is
        what makes the order total.
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
            expires_at=self.hops + ttl_hops,
        )
        self.wtsnp.append(entry)
        self.next_global_seq += n
        return entry

    def age(self) -> int:
        """One token hop: advance ``hops`` and prune the expired.

        Pruning runs only when the head entry has expired, and then drops
        every expired entry; until then an expired entry behind the head
        stays visible to :meth:`lookup`, so the ordered output depends on
        this rule.  Returns the number pruned on this hop.
        """
        self.hops = hops = self.hops + 1
        wtsnp = self.wtsnp
        if wtsnp and wtsnp[0].expires_at <= hops:
            self.wtsnp = [e for e in wtsnp if e.expires_at > hops]
            return len(wtsnp) - len(self.wtsnp)
        return 0

    def lookup(self, ordering_node: NodeId, local_seq: int) -> Optional[WTSNPEntry]:
        """The first entry, in WTSNP order, covering (ordering_node,
        local_seq), if any."""
        for e in self.wtsnp:
            if (e.ordering_node == ordering_node
                    and e.min_local <= local_seq <= e.max_local):
                return e
        return None

    def snapshot(self) -> "OrderingToken":
        """Independent copy kept as a node's New/Old OrderingToken.

        The entry list is copied and the entries are shared: they are
        immutable, so a later :meth:`age` / :meth:`assign` on either copy
        never reaches the other.  ``token_id`` is a tuple of immutables.
        """
        return OrderingToken(
            gid=self.gid,
            next_global_seq=self.next_global_seq,
            wtsnp=self.wtsnp[:],
            token_id=self.token_id,
            hops=self.hops,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.wtsnp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<OrderingToken gid={self.gid} next={self.next_global_seq} "
            f"entries={len(self.wtsnp)} id={self.token_id}>"
        )
