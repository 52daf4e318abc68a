"""Message-Forwarding (paper §4.2.2).

Two cases, both "reliably forward to the next node of the current node":

* **(A) top ring** — raw messages kept in WQ are forwarded along the
  ring so every top-ring node accumulates every source's raw stream
  (each node can then apply Order-Assignment independently from its own
  token snapshots).  Forwarding stops when the next node is the message's
  *corresponding node* (the message has completed the circle).
* **(B) non-top rings** — ordered messages kept in MQ are forwarded
  along the ring, having been injected at the ring **leader** by the
  parent NE.  Forwarding stops when the next node is the leader.

Forwarding is immediate on receipt ("full speed" in the Theorem 5.1
proof): any received message is forwarded before/independently of local
ordering and delivery work.
"""

from __future__ import annotations

from repro.core.datastructures import BufferedMessage, WQEntry
from repro.core.messages import RingOrdered, RingRaw


class ForwardingMixin:
    """Ring-forwarding behaviour, mixed into NetworkEntity."""

    def _init_forwarding(self) -> None:
        self.raw_forwarded = 0
        self.ordered_forwarded = 0

    # ------------------------------------------------------------------
    # Case A: raw messages around the top ring
    # ------------------------------------------------------------------
    def forward_raw(self, entry: WQEntry) -> None:
        """Forward one WQ entry to the next top-ring node (if it should)."""
        nxt = self.view.next
        if nxt is None or nxt == self.id or nxt == entry.ordering_node:
            return
        self.chan.send(nxt, RingRaw(
            gid=self.cfg.gid,
            ordering_node=entry.ordering_node,
            source=entry.source,
            local_seq=entry.local_seq,
            payload=entry.payload,
            created_at=entry.created_at,
        ))
        self.raw_forwarded += 1

    def handle_ring_raw(self, msg: RingRaw) -> None:
        """A raw message arriving from the previous top-ring node."""
        if not self.view.in_top_ring:
            return
        entry = WQEntry(
            ordering_node=msg.ordering_node,
            source=msg.source,
            local_seq=msg.local_seq,
            payload=msg.payload,
            created_at=msg.created_at,
            arrived_at=self.now,
        )
        if not self.wq.insert(entry):
            return  # duplicate via retransmission or rejoin
        self._wake_tau_if_orderable(entry)
        self.forward_raw(entry)

    # ------------------------------------------------------------------
    # Case B: ordered messages around non-top rings
    # ------------------------------------------------------------------
    def forward_ordered(self, bm: BufferedMessage) -> None:
        """Forward one ordered message to the next non-top-ring node."""
        nxt = self.view.next
        if nxt is None or nxt == self.id or nxt == self.view.leader:
            return
        self.chan.send(nxt, RingOrdered(
            gid=self.cfg.gid,
            global_seq=bm.global_seq,
            ordering_node=bm.ordering_node,
            source=bm.source,
            local_seq=bm.local_seq,
            payload=bm.payload,
            created_at=bm.created_at,
        ))
        self.ordered_forwarded += 1

    def handle_ring_ordered(self, msg: RingOrdered) -> None:
        """An ordered message arriving from the previous ring node."""
        bm = BufferedMessage(
            global_seq=msg.global_seq,
            source=msg.source,
            local_seq=msg.local_seq,
            ordering_node=msg.ordering_node,
            payload=msg.payload,
            created_at=msg.created_at,
            ordered_at=self.now,
        )
        mq = self.mq
        rear = mq.rear
        if not mq.insert(bm):
            return  # duplicate
        if msg.global_seq > rear + 1:
            self._maint_timer.wake()    # a hole opened behind this one
        elif msg.global_seq <= rear:
            self._park_if_drained()     # a hole filled
        self.forward_ordered(bm)
        self.try_deliver()
