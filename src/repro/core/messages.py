"""Wire messages of the RingNet protocol.

Naming follows the algorithms that produce them:

* :class:`SourceData` — multicast source → its corresponding top-ring NE.
* :class:`RingRaw` — raw (not yet ordered) message forwarded along the
  top ring (Message-Forwarding, case A).
* :class:`TokenPass` — the OrderingToken hop (Message-Ordering).
* :class:`RingOrdered` — ordered message forwarded along a non-top ring
  (Message-Forwarding, case B).
* :class:`DeliverDown` — ordered message parent → child
  (Message-Delivering, case A).
* :class:`WirelessDeliver` — ordered message AP → MH
  (Message-Delivering, case B).
* :class:`GapRequest` / (answered with DeliverDown/WirelessDeliver) —
  local-scope retransmission: a child or freshly-handed-off MH asks its
  parent for a missing global-sequence range.
* :class:`HandoffRegister` — MH → new AP on arrival, carrying the MH's
  max contiguously delivered global seq (the AP seeds its WT from it).
* :class:`TokenRegen` — Token-Regeneration message circulating the top
  ring with the freshest surviving token snapshot.
* :class:`TokenAnnounce` — Multiple-Token resolution: a holder advertises
  its live token after a ring merge.
* :class:`PathReserve` — AP → AG multicast path reservation (§3 smooth
  handoff); :class:`NeighborNotify` — AP → nearby APs to trigger it.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.net.address import NodeId
from repro.net.message import Message
from repro.core.token import OrderingToken


class SourceData(Message):
    """A new application message from a multicast source."""

    __slots__ = ("gid", "source", "local_seq", "payload", "created_at")

    def __init__(self, gid: str, source: NodeId, local_seq: int, payload: Any,
                 created_at: float):
        self.gid = gid
        self.source = source
        self.local_seq = local_seq
        self.payload = payload
        self.created_at = created_at


class RingRaw(Message):
    """Raw message circulating the top ring, stamped with its ordering node."""

    __slots__ = ("gid", "ordering_node", "source", "local_seq", "payload",
                 "created_at")

    def __init__(self, gid: str, ordering_node: NodeId, source: NodeId,
                 local_seq: int, payload: Any, created_at: float):
        self.gid = gid
        self.ordering_node = ordering_node
        self.source = source
        self.local_seq = local_seq
        self.payload = payload
        self.created_at = created_at


class TokenPass(Message):
    """The OrderingToken moving to the next top-ring node."""

    size_bits = 512

    __slots__ = ("token",)

    def __init__(self, token: OrderingToken):
        self.token = token


class RingOrdered(Message):
    """An ordered message circulating a non-top ring."""

    __slots__ = ("gid", "global_seq", "ordering_node", "source", "local_seq",
                 "payload", "created_at")

    def __init__(self, gid: str, global_seq: int, ordering_node: NodeId,
                 source: NodeId, local_seq: int, payload: Any, created_at: float):
        self.gid = gid
        self.global_seq = global_seq
        self.ordering_node = ordering_node
        self.source = source
        self.local_seq = local_seq
        self.payload = payload
        self.created_at = created_at


class DeliverDown(RingOrdered):
    """An ordered message flowing down a parent→child tree link."""

    __slots__ = ()


class WirelessDeliver(RingOrdered):
    """An ordered message over the AP→MH wireless hop."""

    __slots__ = ()


class GapRequest(Message):
    """Ask the sender's parent (or AP) to re-deliver a seq range."""

    size_bits = 256

    __slots__ = ("gid", "from_seq", "to_seq")

    def __init__(self, gid: str, from_seq: int, to_seq: int):
        self.gid = gid
        self.from_seq = from_seq
        self.to_seq = to_seq


class GapUnavailable(Message):
    """Parent's reply when part of a requested range was pruned/never had.

    The requester tombstones the range as really lost so ordered delivery
    can proceed (best-effort reliability, §4.2.3).
    """

    size_bits = 256

    __slots__ = ("gid", "from_seq", "to_seq")

    def __init__(self, gid: str, from_seq: int, to_seq: int):
        self.gid = gid
        self.from_seq = from_seq
        self.to_seq = to_seq


class HandoffRegister(Message):
    """MH announces itself to a new AP after a handoff (or initial join).

    ``epoch`` is the MH's attachment epoch (its LUID counter): every
    attach increments it, so an AP can order registrations and detaches
    from the same MH even when retransmission delays them.
    """

    size_bits = 256

    __slots__ = ("gid", "mh_guid", "max_delivered_seq", "joining", "epoch")

    def __init__(self, gid: str, mh_guid: NodeId, max_delivered_seq: int,
                 joining: bool = False, epoch: int = 0):
        self.gid = gid
        self.mh_guid = mh_guid
        self.max_delivered_seq = max_delivered_seq
        self.joining = joining
        self.epoch = epoch


class JoinAck(Message):
    """AP → MH: your membership starts after global seq ``base_seq``."""

    size_bits = 128

    __slots__ = ("gid", "base_seq")

    def __init__(self, gid: str, base_seq: int):
        self.gid = gid
        self.base_seq = base_seq


class Detach(Message):
    """MH tells its old AP it is leaving (clean handoff or group leave).

    ``epoch`` names the attachment being torn down; an AP ignores a
    Detach older than its latest registration from the same MH, so a
    retransmission-delayed Detach can never cancel a newer attachment.
    """

    size_bits = 128

    __slots__ = ("gid", "mh_guid", "epoch")

    def __init__(self, gid: str, mh_guid: NodeId, epoch: int = 0):
        self.gid = gid
        self.mh_guid = mh_guid
        self.epoch = epoch


class TokenRegen(Message):
    """Token-Regeneration message carrying the freshest token snapshot."""

    size_bits = 512

    __slots__ = ("gid", "origin", "snapshot")

    def __init__(self, gid: str, origin: NodeId, snapshot: OrderingToken):
        self.gid = gid
        self.origin = origin
        self.snapshot = snapshot


class TokenAnnounce(Message):
    """Multiple-Token resolution: advertise a live token around the ring."""

    size_bits = 256

    __slots__ = ("gid", "origin", "token_id", "next_global_seq", "hops_left")

    def __init__(self, gid: str, origin: NodeId, token_id: tuple,
                 next_global_seq: int, hops_left: int):
        self.gid = gid
        self.origin = origin
        self.token_id = token_id
        self.next_global_seq = next_global_seq
        self.hops_left = hops_left


class PathReserve(Message):
    """AP asks an AG to set up / refresh a multicast path entry (MMA).

    ``active=True`` means a group member is attached behind the AP (the
    entry must stay); ``active=False`` is a smooth-handoff standby
    reservation that may expire after ``cfg.reservation_ttl``.
    """

    size_bits = 256

    __slots__ = ("gid", "ap", "active")

    def __init__(self, gid: str, ap: NodeId, active: bool = True):
        self.gid = gid
        self.ap = ap
        self.active = active


class NeighborNotify(Message):
    """AP tells nearby APs to pre-reserve paths (smooth handoff, §3)."""

    size_bits = 256

    __slots__ = ("gid",)

    def __init__(self, gid: str):
        self.gid = gid


class MembershipUpdate(Message):
    """Batched membership changes propagating toward the top leader."""

    size_bits = 512

    __slots__ = ("gid", "joins", "leaves", "origin")

    def __init__(self, gid: str, joins: List[NodeId], leaves: List[NodeId],
                 origin: NodeId):
        self.gid = gid
        self.joins = joins
        self.leaves = leaves
        self.origin = origin
