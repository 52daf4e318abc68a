"""Per-link reliable transport: sequencing, acks, bounded retransmission.

The paper repeatedly invokes "some retransmission scheme" — for passing
the OrderingToken, for ring forwarding, and for parent→child / AP→MH
delivery — with *best-effort* semantics: after a bounded number of
retries the message is declared really lost and the upper layer moves on
(the "local-scope-based retransmission scheme" of §4.2.3).

:class:`ReliableChannel` provides exactly that contract to any
:class:`~repro.net.node.NetNode`:

* every payload is wrapped in a :class:`Segment` with a per-destination
  sequence number;
* the receiver acks each segment (:class:`SegAck`) and suppresses
  duplicates, delivering each payload exactly once (possibly out of
  order — ordering is the protocol layer's job);
* the sender retransmits on an RTO timer up to ``max_retries`` times and
  then *gives up*, reporting the loss through ``on_give_up``.

Usage pattern inside a node::

    self.chan = ReliableChannel(self, rto=20.0, max_retries=5,
                                on_give_up=self._lost)

    def on_message(self, msg):
        payload = self.chan.accept(msg)
        if payload is None:        # transport control or duplicate
            return
        ...handle payload...

Hot-path contract: ``send``, ``accept`` and ``cancel_all`` are the seams
``perfbench`` shims, and every transmission leaves through
``NetNode.send`` — the channel caches no link, so a disconnected one
fails or auto-creates there as for any sender.  Per message they look up
the peer's one :class:`_Peer` record and work on it; dedup, outstanding
and RTO book-keeping are written out inside them (no per-message helper
calls, and no per-message object beside the :class:`Segment`, which is
its own outstanding record), every RTO schedules the one bound
``_on_timeout``, and dispatch is on the exact message class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Callable, Dict, FrozenSet, Optional

from repro.net.address import NodeId
from repro.net.message import Message
from repro.net.node import NetNode


class Segment(Message):
    """Channel-level wrapper: (seq, payload) between one node pair.

    The segment a channel sends is also its outstanding record:
    ``retries_left`` and ``rto_event`` (the raw scheduler handle of the
    pending RTO) are the sender's, set by :meth:`ReliableChannel.send`.
    They never travel: a segment pickles (shard export, UDP) only its
    wire fields.
    """

    __slots__ = ("seq", "payload", "retries_left", "rto_event")

    _WIRE = ("src", "dst", "sent_at", "seq", "payload")

    def __init__(self, seq: int, payload: Message):
        self.seq = seq
        self.payload = payload

    @property
    def size_bits(self) -> int:
        """Payload plus header; derived, so a segment stores no size."""
        return self.payload.size_bits + 64

    def __getstate__(self):
        return None, {name: getattr(self, name) for name in self._WIRE}


class SegAck(Message):
    """Positive acknowledgement of one segment."""

    size_bits = 128

    __slots__ = ("seq",)

    def __init__(self, seq: int):
        self.seq = seq


@dataclass(slots=True)
class TransportStats:
    """Counters exposed for the reliability experiments."""

    sent: int = 0
    retransmitted: int = 0
    acked: int = 0
    gave_up: int = 0
    duplicates: int = 0
    delivered: int = 0


#: ``_Peer.sparse`` of a peer that never delivered out of order.
_NO_GAPS: FrozenSet[int] = frozenset()


class _Peer:
    """Everything a channel knows about one remote node.

    Sender side: the next sequence number, the unacked segments by seq
    (insertion order = ascending seq) and their ``peak`` count, which
    the validation monitors bound.  Receiver side: every seq below
    ``floor`` was seen, plus the out-of-order ones in ``sparse`` (all
    above ``floor``; a shared empty frozenset until the first
    out-of-order arrival).  Records outlive ``cancel_all``: a peer that
    returns continues its numbering instead of looking like duplicates.
    """

    __slots__ = ("next_seq", "outstanding", "peak", "floor", "sparse")

    def __init__(self) -> None:
        self.next_seq = 0
        self.outstanding: Dict[int, Segment] = {}
        self.peak = 0
        self.floor = 0
        self.sparse: AbstractSet[int] = _NO_GAPS


class ReliableChannel:
    """Best-effort reliable unicast on top of a lossy fabric.

    Parameters
    ----------
    node:
        Owning node; the channel sends through it and shares its fate.
    rto:
        Retransmission timeout (same time units as link latency — ms).
    max_retries:
        Retransmissions before giving up.  ``max_retries=0`` degrades the
        channel to pure fire-and-forget with dedup.
    on_give_up:
        Called as ``on_give_up(dst, payload)`` when a payload is dropped
        after exhausting retries — the hook the protocol layer uses to
        mark a message "really lost" (Received=False, Waiting=False).
    on_ack:
        Called as ``on_ack(dst, payload)`` when the peer acknowledges a
        segment — the hook the delivery algorithm uses to advance its
        per-child WT (max delivered global sequence number).
    """

    __slots__ = ("node", "rto", "max_retries", "on_give_up", "on_ack",
                 "stats", "_peers", "_in_flight", "_timeout")

    def __init__(
        self,
        node: NetNode,
        rto: float = 20.0,
        max_retries: int = 5,
        on_give_up: Optional[Callable[[NodeId, Message], None]] = None,
        on_ack: Optional[Callable[[NodeId, Message], None]] = None,
    ):
        if rto <= 0:
            raise ValueError(f"rto must be positive, got {rto}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.node = node
        self.rto = rto
        self.max_retries = max_retries
        self.on_give_up = on_give_up
        self.on_ack = on_ack
        self.stats = TransportStats()
        self._peers: Dict[NodeId, _Peer] = {}
        self._in_flight = 0
        #: ``_on_timeout`` bound once: every RTO schedules this object.
        self._timeout = self._on_timeout

    def _peer(self, node_id: NodeId) -> _Peer:
        """First-contact constructor of a peer record (cold)."""
        peer = self._peers[node_id] = _Peer()
        return peer

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def send(self, dst: NodeId, payload: Message) -> int:
        """Send ``payload`` reliably; returns the channel sequence number."""
        peer = self._peers.get(dst)
        if peer is None:
            peer = self._peer(dst)
        seq = peer.next_seq
        peer.next_seq = seq + 1
        seg = Segment(seq, payload)
        seg.retries_left = self.max_retries
        seg.rto_event = None
        outstanding = peer.outstanding
        outstanding[seq] = seg
        self._in_flight += 1
        node = self.node
        sim = node.sim
        if len(outstanding) > peer.peak:
            peer.peak = len(outstanding)
        self.stats.sent += 1
        spans = sim.spans
        if spans is not None:
            spans.seg_send(sim.now, node.id, dst, payload, False)
        node.send(dst, seg)
        seg.rto_event = sim.schedule_at(
            sim.now + self.rto, self._timeout, dst, seq)
        return seq

    def _on_timeout(self, dst: NodeId, seq: int) -> None:
        outstanding = self._peers[dst].outstanding
        seg = outstanding.get(seq)
        if seg is None:
            return
        node = self.node
        if not node.alive:
            # A crashed node retransmits nothing; leave state for recovery.
            return
        sim = node.sim
        payload = seg.payload
        if seg.retries_left <= 0:
            del outstanding[seq]
            self._in_flight -= 1
            self.stats.gave_up += 1
            sim.trace.emit(
                sim.now, "transport.give_up",
                src=node.id, dst=dst, msg_kind=payload.kind,
            )
            spans = sim.spans
            if spans is not None:
                spans.give_up(sim.now, node.id, dst, payload)
            if self.on_give_up is not None:
                self.on_give_up(dst, payload)
            return
        seg.retries_left -= 1
        self.stats.retransmitted += 1
        spans = sim.spans
        if spans is not None:
            spans.seg_send(sim.now, node.id, dst, payload, True)
        node.send(dst, seg)
        seg.rto_event = sim.schedule_at(
            sim.now + self.rto, self._timeout, dst, seq)

    @property
    def in_flight(self) -> int:
        """Number of currently unacked segments (O(1))."""
        return self._in_flight

    @property
    def peak_in_flight_by_dst(self) -> Dict[NodeId, int]:
        """``{dst: most segments ever unacked at once}``, built per read."""
        return {dst: peer.peak for dst, peer in self._peers.items()
                if peer.peak}

    def cancel_all(self, dst: Optional[NodeId] = None) -> None:
        """Abandon outstanding segments (to ``dst``, or all): O(that
        peer's outstanding), its RTOs cancelled in ascending seq order."""
        if dst is None:
            peers = self._peers.values()
        else:
            peer = self._peers.get(dst)
            peers = [] if peer is None else [peer]
        cancel = self.node.sim.cancel
        for peer in peers:
            for seg in peer.outstanding.values():
                if seg.rto_event is not None:   # its first send raised
                    cancel(seg.rto_event)
            self._in_flight -= len(peer.outstanding)
            peer.outstanding.clear()

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def accept(self, msg: Message) -> Optional[Message]:
        """Filter transport messages; return app payload or None.

        Call with *every* incoming message.  Returns the inner payload
        exactly once per segment; returns None for acks, duplicates and
        non-transport messages are returned unchanged.
        """
        kind = type(msg)
        if kind is Segment:
            src = msg.src
            seq = msg.seq
            node = self.node
            # Always (re-)ack: the previous ack may have been lost.
            node.send(src, SegAck(seq))
            peer = self._peers.get(src)
            if peer is None:
                peer = self._peer(src)
            floor = peer.floor
            if seq == floor:
                # In order: raise the floor, then over whatever the
                # out-of-order arrivals already made contiguous.
                floor += 1
                sparse = peer.sparse
                while floor in sparse:
                    sparse.remove(floor)
                    floor += 1
                peer.floor = floor
            elif seq < floor or seq in peer.sparse:
                self.stats.duplicates += 1
                return None
            elif peer.sparse:
                peer.sparse.add(seq)
            else:
                peer.sparse = {seq}
            self.stats.delivered += 1
            payload = msg.payload
            payload.src = src
            payload.dst = msg.dst
            payload.sent_at = msg.sent_at
            spans = node.sim.spans
            if spans is not None:
                spans.seg_recv(node.sim.now, node.id, src, payload)
            return payload
        if kind is SegAck:
            src = msg.src
            peer = self._peers.get(src)
            seg = (peer.outstanding.pop(msg.seq, None)
                   if peer is not None else None)
            if seg is not None:
                self._in_flight -= 1
                self.node.sim.cancel(seg.rto_event)
                self.stats.acked += 1
                if self.on_ack is not None:
                    self.on_ack(src, seg.payload)
            return None
        return msg
