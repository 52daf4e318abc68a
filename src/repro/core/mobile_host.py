"""The Mobile Host endpoint (paper §4.1, "Data Structure of MHs").

An MH is a resource-constrained leaf: it holds only its group id, the
identity of its currently attached AP, its GUID/LUID pair, and a small
MQ from which messages are **delivered to the application in global
sequence order**.  Delivered messages are dropped immediately (the
paper reserves ``ValidFront`` retention for NEs).

Lifecycle:

* :meth:`join` — attach to an AP and become a group member; the AP
  answers with a :class:`~repro.core.messages.JoinAck` carrying the
  global sequence the membership starts after.
* :meth:`handoff_to` — detach from the old AP and register with a new
  one, advertising the max contiguously delivered sequence so the new AP
  resumes delivery exactly where the old one stopped ("even in
  handoffs").
* :meth:`leave` — detach and stop delivering.

Loss handling mirrors the NE side: a persistent sequence gap triggers a
:class:`~repro.core.messages.GapRequest` to the current AP, and a
:class:`~repro.core.messages.GapUnavailable` response (or repeated
silence) tombstones the range as really lost so application delivery
proceeds.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.datastructures import BufferedMessage, MessageQueue
from repro.core.messages import (
    Detach,
    GapRequest,
    GapUnavailable,
    HandoffRegister,
    JoinAck,
    WirelessDeliver,
)
from repro.core.retransmission import GAP_MAX_ATTEMPTS
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel


class MobileHost(NetNode):
    """A mobile group member.

    Fully slotted: MHs are the entity that exists a hundred thousand to
    a million times at the top bench rungs, so per-instance ``__dict__``
    overhead (and any unbounded observer state — see
    ``ProtocolConfig.retain_app_log``) dominates resident memory there.
    """

    __slots__ = ("cfg", "guid", "luid", "ap", "is_member", "mq", "chan",
                 "app_log", "tombstones", "handoffs", "last_delivery_at",
                 "_delivered_n", "_attach_epoch", "_gap_state",
                 "_gap_timer")

    def __init__(self, fabric: Fabric, guid: NodeId, cfg: ProtocolConfig):
        NetNode.__init__(self, fabric, guid)
        self.cfg = cfg
        #: Globally unique id (Mobile IP home address analogue).
        self.guid = guid
        #: Locally unique id (care-of address analogue): (AP, epoch).
        self.luid: Optional[Tuple[NodeId, int]] = None
        self.ap: Optional[NodeId] = None
        self.is_member = False
        self.mq = MessageQueue()
        self.chan = ReliableChannel(self, rto=cfg.wireless_rto,
                                    max_retries=cfg.max_retries)
        #: (global_seq, payload, latency) for every app-level delivery —
        #: observer state, kept only while ``cfg.retain_app_log`` says so.
        self.app_log: List[Tuple[int, Any, float]] = []
        self.tombstones = 0
        self.handoffs = 0
        self.last_delivery_at: float = -1.0
        self._delivered_n = 0
        self._attach_epoch = 0
        self._gap_state: Optional[Tuple[int, float, int]] = None
        self._gap_timer = self.periodic(
            max(cfg.gap_timeout / 2.0, cfg.tau), self._gap_tick
        )

    # ------------------------------------------------------------------
    # Membership / mobility actions
    # ------------------------------------------------------------------
    def join(self, ap: NodeId) -> None:
        """Attach to ``ap`` and join the group."""
        self.ap = ap
        self._attach_epoch += 1
        self.luid = (ap, self._attach_epoch)
        self.chan.send(ap, HandoffRegister(self.cfg.gid, self.guid,
                                           max_delivered_seq=-1, joining=True,
                                           epoch=self._attach_epoch))
        self._gap_timer.start()
        self.sim.trace.emit(self.now, "mh.join", mh=self.guid, ap=ap)

    def handoff_to(self, new_ap: NodeId) -> None:
        """Move to ``new_ap``, resuming delivery after ``mq.front``."""
        old = self.ap
        if old is not None and old != new_ap:
            # Abandon in-flight traffic to the old AP *before* sending
            # the Detach, so the Detach itself keeps its retransmission
            # state — cancelling afterwards made a single lost wireless
            # transmission strand the registration at the old AP forever
            # (found by the membership-consistency monitor).  The Detach
            # carries the epoch being torn down, so if this MH returns
            # to ``old`` before a delayed retransmission lands, the AP
            # recognizes it as stale and keeps the newer registration.
            self.chan.cancel_all(old)
            self.chan.send(old, Detach(self.cfg.gid, self.guid,
                                       epoch=self._attach_epoch))
        self.ap = new_ap
        self._attach_epoch += 1
        self.luid = (new_ap, self._attach_epoch)
        self.handoffs += 1
        self._gap_state = None
        self.chan.send(new_ap, HandoffRegister(
            self.cfg.gid, self.guid, max_delivered_seq=self.mq.front,
            joining=not self.is_member, epoch=self._attach_epoch))
        self.sim.trace.emit(self.now, "mh.handoff", mh=self.guid,
                            old=old, new=new_ap, front=self.mq.front)

    def leave(self) -> None:
        """Leave the group and detach from the current AP."""
        if self.ap is not None:
            self.chan.send(self.ap, Detach(self.cfg.gid, self.guid,
                                           epoch=self._attach_epoch))
        self.is_member = False
        self._gap_timer.stop()
        self.sim.trace.emit(self.now, "mh.leave", mh=self.guid, ap=self.ap)
        self.ap = None

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, WirelessDeliver):
            self._handle_deliver(payload)
        elif isinstance(payload, JoinAck):
            self._handle_join_ack(payload)
        elif isinstance(payload, GapUnavailable):
            self._handle_gap_unavailable(payload)

    def _handle_join_ack(self, msg: JoinAck) -> None:
        """Become a member after ``base``: the AP's ``base_seq``, or the
        MH's own ``front`` if that is further on — a rejoining MH never
        re-delivers what it already delivered, however far behind the
        new AP's path still is."""
        if self.is_member:
            return
        self.is_member = True
        base = max(msg.base_seq, self.mq.front)
        self.mq = MessageQueue(start_seq=base + 1)
        if self.ap is not None:
            # The new queue is empty: park now, as the next tick would.
            self._gap_state = None
            self._gap_timer.park()
        self.sim.trace.emit(self.now, "mh.member", mh=self.guid, base=base)

    def _handle_deliver(self, msg: WirelessDeliver) -> None:
        if not self.is_member:
            return
        bm = BufferedMessage(
            global_seq=msg.global_seq,
            source=msg.source,
            local_seq=msg.local_seq,
            ordering_node=msg.ordering_node,
            payload=msg.payload,
            created_at=msg.created_at,
        )
        if not self.mq.insert(bm):
            return
        self._deliver_contiguous()

    def _deliver_contiguous(self) -> None:
        """Deliver to the application strictly in global sequence order."""
        mq = self.mq
        bm = mq.get(mq.front + 1)
        if bm is not None:
            sim = self.sim
            now = sim.now
            retain = self.cfg.retain_app_log
            while bm is not None:
                seq = bm.global_seq
                if not bm.received:
                    # A tombstone: counted delivered, nothing reaches
                    # the app.
                    mq.mark_delivered(seq)
                    mq.advance_front()
                else:
                    mq.mark_delivered(seq, at=now)
                    mq.advance_front()
                    latency = now - bm.created_at
                    self._delivered_n += 1
                    if retain:
                        self.app_log.append((seq, bm.payload, latency))
                    self.last_delivery_at = now
                    sim.trace.emit(
                        now, "mh.deliver", mh=self.guid, gseq=seq,
                        latency=latency, source=bm.source,
                        local_seq=bm.local_seq, created_at=bm.created_at,
                    )
                bm = mq.get(mq.front + 1)
        # MHs keep no delivered history (resource constraints, §1).
        mq.prune(0)
        if mq.rear > mq.front:
            # Stopped short of rear: a hole for the gap tick to watch.
            self._gap_timer.wake()
        elif self.is_member and self.ap is not None:
            # Nothing outstanding: park now, as the next tick would.
            self._gap_state = None
            self._gap_timer.park()

    # ------------------------------------------------------------------
    # Gap recovery (MH side)
    # ------------------------------------------------------------------
    def _gap_tick(self) -> None:
        if not self.is_member or self.ap is None:
            return
        hole = self.mq.front + 1
        if self.mq.rear < hole:
            # Nothing outstanding (_deliver_contiguous parks there
            # too): park until it stops short of rear.
            self._gap_state = None
            self._gap_timer.park()
            return
        if self._gap_state is None or self._gap_state[0] != hole:
            self._gap_state = (hole, self.now, 0)
            return
        first_seen, attempts = self._gap_state[1], self._gap_state[2]
        if self.now - first_seen < self.cfg.gap_timeout * (attempts + 1):
            return
        hole_end = hole
        while hole_end + 1 <= self.mq.rear and not self.mq.has(hole_end + 1):
            hole_end += 1
        if attempts >= GAP_MAX_ATTEMPTS:
            self._tombstone_range(hole, hole_end)
            self._gap_state = None
            return
        self.chan.send(self.ap, GapRequest(self.cfg.gid, hole, hole_end))
        self.sim.trace.emit(self.now, "mh.gap_request", mh=self.guid,
                            ap=self.ap, from_seq=hole, to_seq=hole_end)
        self._gap_state = (hole, first_seen, attempts + 1)

    def _handle_gap_unavailable(self, msg: GapUnavailable) -> None:
        self._tombstone_range(msg.from_seq, msg.to_seq)

    def _tombstone_range(self, from_seq: int, to_seq: int) -> None:
        for seq in range(max(from_seq, self.mq.front + 1), to_seq + 1):
            if not self.mq.has(seq):
                self.mq.tombstone_lost(seq)
                self.tombstones += 1
                self.sim.trace.emit(self.now, "mh.tombstone", mh=self.guid,
                                    gseq=seq)
        self._deliver_contiguous()

    # ------------------------------------------------------------------
    @property
    def delivered_count(self) -> int:
        """Messages delivered to the application so far.

        Counted independently of ``app_log`` so it stays correct when
        ``cfg.retain_app_log`` is off.
        """
        return self._delivered_n

    def delivered_seqs(self) -> List[int]:
        """Global sequence numbers delivered, in delivery order.

        Reads the app log — empty when ``cfg.retain_app_log`` is off.
        """
        return [g for g, _, _ in self.app_log]
