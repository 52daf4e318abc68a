"""Shared pieces for the baseline protocols.

Baselines reuse the RingNet trace vocabulary (``mh.deliver`` with
``latency``, ``mh.handoff``, ``source.send``) so every metrics collector
works unchanged across protocols.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig
from repro.core.source import MulticastSource
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator


class PlainDeliver(Message):
    """A data message as delivered by a baseline protocol.

    ``seq`` is whatever ordering handle the baseline has (a global
    sequence for ordered baselines, a per-source sequence otherwise) —
    it feeds the ``gseq`` trace field.
    """

    __slots__ = ("source", "local_seq", "seq", "payload", "created_at")

    def __init__(self, source: NodeId, local_seq: int, seq: int,
                 payload: Any, created_at: float):
        self.source = source
        self.local_seq = local_seq
        self.seq = seq
        self.payload = payload
        self.created_at = created_at


class Register(Message):
    """MH → serving node: start delivering to me."""

    size_bits = 128

    __slots__ = ("mh",)

    def __init__(self, mh: NodeId):
        self.mh = mh


class Deregister(Message):
    """MH → serving node: stop delivering to me."""

    size_bits = 128

    __slots__ = ("mh",)

    def __init__(self, mh: NodeId):
        self.mh = mh


class BaselineMH(NetNode):
    """A mobile host for baseline protocols: deliver-on-arrival.

    Duplicate suppression is by (source, local_seq); ordered baselines
    that need in-sequence delivery layer it on top (see the sequencer).
    """

    def __init__(self, fabric: Fabric, guid: NodeId, rto: float = 30.0,
                 max_retries: int = 5):
        NetNode.__init__(self, fabric, guid)
        self.guid = guid
        self.ap: Optional[NodeId] = None
        self.is_member = False
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries)
        self.app_log: List[Tuple[int, Any, float]] = []
        self._seen: set = set()
        self.handoffs = 0

    # ------------------------------------------------------------------
    def join(self, ap: NodeId) -> None:
        """Attach and register at ``ap``."""
        self.ap = ap
        self.is_member = True
        self.chan.send(ap, Register(self.guid))
        self.sim.trace.emit(self.now, "mh.join", mh=self.guid, ap=ap)

    def handoff_to(self, new_ap: NodeId) -> None:
        """Deregister from the old serving node, register at the new."""
        old = self.ap
        if old is not None and old != new_ap:
            # Cancel before sending (not after) so the Deregister keeps
            # its retransmission state on a lossy access link — same fix
            # as MobileHost.handoff_to.
            self.chan.cancel_all(old)
            self.chan.send(old, Deregister(self.guid))
        self.ap = new_ap
        self.handoffs += 1
        self.chan.send(new_ap, Register(self.guid))
        self.sim.trace.emit(self.now, "mh.handoff", mh=self.guid,
                            old=old, new=new_ap, front=-1)

    def leave(self) -> None:
        """Leave the group."""
        if self.ap is not None:
            self.chan.send(self.ap, Deregister(self.guid))
        self.is_member = False
        self.sim.trace.emit(self.now, "mh.leave", mh=self.guid, ap=self.ap)
        self.ap = None

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            self._handle_deliver(payload)

    def _handle_deliver(self, msg: PlainDeliver) -> None:
        if not self.is_member:
            return
        key = (msg.source, msg.local_seq)
        if key in self._seen:
            return
        self._seen.add(key)
        latency = self.now - msg.created_at
        self.app_log.append((msg.seq, msg.payload, latency))
        self.sim.trace.emit(
            self.now, "mh.deliver", mh=self.guid, gseq=msg.seq,
            latency=latency, source=msg.source, local_seq=msg.local_seq,
            created_at=msg.created_at,
        )

    @property
    def delivered_count(self) -> int:
        """Messages delivered to the application."""
        return len(self.app_log)


class BaselineSource(MulticastSource):
    """RingNet's source loop, sending one :class:`PlainDeliver` per sink.

    ``corresponding`` is the ``source.send`` label: the one sink by
    default, a placeholder such as ``"<all-sh>"`` for a fan-out.
    """

    def __init__(self, fabric: Fabric, source_id: NodeId,
                 sinks: Sequence[NodeId], rate_per_sec: float = 10.0,
                 pattern: str = "cbr", rto: float = 25.0,
                 max_retries: int = 5,
                 corresponding: Optional[NodeId] = None):
        MulticastSource.__init__(
            self, fabric, source_id,
            ProtocolConfig(rto=rto, max_retries=max_retries),
            sinks[0] if corresponding is None else corresponding,
            rate_per_sec, pattern)
        self.sinks = list(sinks)

    def _send(self, seq: int, payload: Any) -> None:
        for sink in self.sinks:
            self.chan.send(sink, PlainDeliver(self.id, seq, seq, payload,
                                              self.now))


class BaselineNet:
    """The MH surface every baseline facade shares, under RingNet's names.

    ``wireless`` is the MH access link; ``max_retries``, the MH channels'
    retransmission budget, may be set per facade.
    """

    max_retries = 5

    def __init__(self, sim: Simulator, fabric: Fabric,
                 wireless: LinkSpec) -> None:
        self.sim = sim
        self.fabric = fabric
        self.wireless = wireless
        self.mobile_hosts: Dict[NodeId, BaselineMH] = {}

    def start(self) -> None:
        """No periodic machinery to start; present for API parity."""

    def add_mobile_host(self, mh_id: NodeId, ap_id: NodeId,
                        join: bool = True) -> BaselineMH:
        """Create an MH linked to its serving node, optionally joined."""
        mh = BaselineMH(self.fabric, mh_id, max_retries=self.max_retries)
        self.fabric.connect(mh_id, ap_id, self.wireless)
        self.mobile_hosts[mh_id] = mh
        if join:
            mh.join(ap_id)
        return mh

    def handoff(self, mh_id: NodeId, new_ap: NodeId) -> None:
        """Move an MH to a new serving node."""
        mh = self.mobile_hosts[mh_id]
        if self.fabric.link(mh_id, new_ap) is None:
            self.fabric.connect(mh_id, new_ap, self.wireless)
        mh.handoff_to(new_ap)

    def member_hosts(self) -> List[BaselineMH]:
        """All current member MHs."""
        return [m for m in self.mobile_hosts.values() if m.is_member]

    def total_app_deliveries(self) -> int:
        """Application deliveries summed over all MHs."""
        return sum(m.delivered_count for m in self.mobile_hosts.values())
