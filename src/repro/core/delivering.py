"""Message-Delivering (paper §4.2.3).

Moves ordered messages **down** the hierarchy: from each NE's MQ to its
children (case A: tree links to child NEs — the leaders of lower rings
and the APs) and from bottom APs to their attached MHs (case B: the
wireless hop), "even in handoffs".

Mechanics:

* per-child delivery is **in global-sequence order** with a sliding
  window of unacked messages (``cfg.delivery_window``); the reliable
  channel's ack feeds the WT (max delivered per child), and its give-up
  feeds the best-effort rule — a message the channel abandoned is
  *counted* delivered to that child (the child recovers via local-scope
  retransmission or tombstones it as really lost);
* a message becomes ``Delivered`` at this NE once **all** children have
  it (paper: WT computes "the maximal global sequence number of the
  message which has been delivered to either all the children nodes ...
  or all the attached MHs"); the MQ ``Front`` pointer then advances and
  pruning keeps ``mq_retention`` delivered messages behind ``ValidFront``
  for handoff catch-up;
* an NE with **no** children considers every buffered message delivered
  (nothing to wait for) — this keeps leaf APs with no attached members
  from buffering forever.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.address import NodeId, tier_of
from repro.core.messages import DeliverDown, RingOrdered, WirelessDeliver


class _Child:
    """Delivery state of one registered child: the next global sequence
    owed to it, its unacked sends (the sliding window), and the message
    class of its hop — decided once from its tier, not per message."""

    __slots__ = ("next_send", "in_flight", "wrap")

    def __init__(self, child: NodeId, next_send: int):
        self.next_send = next_send
        self.in_flight = 0
        self.wrap = WirelessDeliver if tier_of(child) == "mh" else DeliverDown


class DeliveringMixin:
    """Downward delivery behaviour, mixed into NetworkEntity."""

    def _init_delivering(self) -> None:
        #: One record per child in the WT (registered and removed together).
        self._kids: Dict[NodeId, _Child] = {}
        self.delivered_to_children = 0
        self.delivery_give_ups = 0

    # ------------------------------------------------------------------
    # Child registry
    # ------------------------------------------------------------------
    def register_child(self, child: NodeId, from_seq: Optional[int] = None) -> None:
        """Start delivering to ``child`` for messages after ``from_seq``.

        ``from_seq=None`` means "from my current front" — the natural
        baseline for a freshly attached child or reserved path.
        """
        base = self.mq.front if from_seq is None else from_seq
        self.wt.add_child(child, base)
        self._kids[child] = _Child(child, base + 1)
        self.try_deliver()

    def unregister_child(self, child: NodeId) -> None:
        """Stop delivering to ``child`` (leave, handoff away, failure)."""
        self.wt.remove_child(child)
        self._kids.pop(child, None)
        self.chan.cancel_all(child)
        self._after_delivery_progress()

    def has_child(self, child: NodeId) -> bool:
        """Whether ``child`` is currently registered for delivery."""
        return child in self._kids

    # ------------------------------------------------------------------
    # The delivery loop
    # ------------------------------------------------------------------
    def try_deliver(self) -> None:
        """Push in-order messages to every child up to the window limit
        (run by whatever can make *any* child sendable, see _pump)."""
        kids = self._kids
        for child in self.wt.children:
            self._pump(child, kids[child])
        self._after_delivery_progress()

    def _pump(self, child: NodeId, kid: _Child) -> None:
        """Push in-order messages to one child up to the window limit.

        **Fixed-point invariant.**  After :meth:`try_deliver` no child
        is sendable: each is stopped by its window or by a sequence the
        MQ does not hold.  Such a stop is lifted only by a new MQ entry,
        a tombstone or a registration (each runs :meth:`try_deliver`) or
        by the child's *own* ack or give-up.  Pruning cannot lift one:
        ``valid_front <= front + 1 <= min over children of max-delivered
        + 1 <= next_send`` of every child.  Hence an ack or give-up
        pumps its child alone; ``tests/test_core_delivery_fixed_point.py``
        is the oracle.
        """
        window = self.cfg.delivery_window
        if kid.in_flight >= window:
            return
        mq = self.mq
        get = mq.get
        record = self.wt.record_delivered
        send = self.chan.send
        wrap = kid.wrap
        gid = self.cfg.gid
        while kid.in_flight < window:
            seq = kid.next_send
            bm = get(seq)
            if bm is None:
                if seq < mq.valid_front:
                    # Unserveable forever (pruned / before this NE's
                    # time): count it delivered and let the child's
                    # gap machinery tombstone it.
                    record(child, seq)
                    kid.next_send = seq + 1
                    continue
                break  # not yet ordered/received here, or a hole
            if not bm.received and not bm.waiting:
                # Really lost: nothing to send; the loss tombstone
                # counts as delivered for this child too.
                record(child, seq)
                kid.next_send = seq + 1
                continue
            send(child, wrap(gid, seq, bm.ordering_node, bm.source,
                             bm.local_seq, bm.payload, bm.created_at))
            kid.in_flight += 1
            kid.next_send = seq + 1

    # ------------------------------------------------------------------
    # Channel callbacks (wired by NetworkEntity)
    # ------------------------------------------------------------------
    def _delivery_acked(self, child: NodeId, msg: RingOrdered) -> None:
        kid = self._kids.get(child)
        if kid is not None:
            self.wt.record_delivered(child, msg.global_seq)
            if kid.in_flight > 0:
                kid.in_flight -= 1
            self.delivered_to_children += 1
            # Only this child's window moved (see _pump).
            self._pump(child, kid)
        self._after_delivery_progress()

    def _delivery_gave_up(self, child: NodeId, msg: RingOrdered) -> None:
        # Best-effort: count as delivered; the child's own gap recovery
        # (or loss tombstoning) takes it from here.
        self.delivery_give_ups += 1
        self.sim.trace.emit(self.now, "deliver.give_up", node=self.id,
                            child=child, gseq=msg.global_seq)
        kid = self._kids.get(child)
        if kid is not None:
            self.wt.record_delivered(child, msg.global_seq)
            if kid.in_flight > 0:
                kid.in_flight -= 1
            self._pump(child, kid)
        self._after_delivery_progress()

    # ------------------------------------------------------------------
    # Front advancement + pruning
    # ------------------------------------------------------------------
    def _after_delivery_progress(self) -> None:
        mq = self.mq
        if self._kids:
            horizon = self.wt.min_delivered_across()
        else:
            # No children: everything buffered is trivially delivered.
            horizon = mq.rear
        seq = mq.front + 1
        if horizon < seq:
            return  # nothing new is delivered to every child
        get = mq.get
        advanced = False
        while seq <= horizon:
            bm = get(seq)
            if bm is None:
                break  # hole: gap recovery will fill or tombstone it
            if not bm.delivered:
                now = self.sim.now
                mq.mark_delivered(seq, now)
                self.sim.trace.emit(now, "ne.delivered", node=self.id,
                                    gseq=seq)
            advanced = True
            seq += 1
        if advanced:
            mq.advance_front()
            mq.prune(self.cfg.mq_retention)
