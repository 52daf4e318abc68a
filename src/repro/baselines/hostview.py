"""The two-tier Host-View scheme of Acharya & Badrinath [1].

"The Host-View consists of a set of MSSs, which represents the aggregate
location information of the group ... in order to deliver a multicast
message to a group of MHs, it suffices to send a copy to only those MSSs
in the group's Host-View."  The known weaknesses the paper cites — and
experiment E8 measures — are:

* the **sender** buffers every message until every MSS in the view acks
  it, and each **MSS** buffers until its local members ack, so buffer
  usage grows with the view size;
* "the global updates necessary with every significant move make it
  inefficient and may cause lengthy breaks in service": a handoff to an
  MSS outside the view blocks delivery to that MH until a *global* view
  update (one control message to every view member plus an update
  latency) completes.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.baselines.common import (
    BaselineNet,
    Deregister,
    PlainDeliver,
    Register,
)
from repro.core.config import ProtocolConfig
from repro.core.source import MulticastSource
from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator


class ViewRequest(Message):
    """MSS → sender: add me to the group's Host-View (``join``), or drop
    me from it once my last member left.  ``epoch`` numbers one MSS's
    requests, so a request the channel delivers late never undoes a
    newer one."""

    size_bits = 128

    __slots__ = ("mss", "join", "epoch")

    def __init__(self, mss: NodeId, join: bool, epoch: int):
        self.mss = mss
        self.join = join
        self.epoch = epoch


class ViewUpdate(Message):
    """Sender → every view MSS: the Host-View changed (control traffic)."""

    size_bits = 256

    __slots__ = ("view_version",)

    def __init__(self, view_version: int):
        self.view_version = view_version


class HostViewSender(MulticastSource):
    """The multicast sender holding the group's Host-View."""

    def __init__(self, fabric: Fabric, node_id: NodeId,
                 rate_per_sec: float = 10.0, pattern: str = "cbr",
                 update_latency: float = 100.0):
        MulticastSource.__init__(self, fabric, node_id, ProtocolConfig(),
                                 "<view>", rate_per_sec, pattern)
        self.chan.on_ack = self._on_ack
        self.update_latency = update_latency
        #: The Host-View: MSSs in join order (an ordered set).
        self.view: Dict[NodeId, None] = {}
        self.view_version = 0
        self.control_messages = 0
        #: The newest request epoch seen from each MSS.
        self._epochs: Dict[NodeId, int] = {}
        #: local_seq -> set of MSSs still owing an ack (the send buffer).
        self._unacked: Dict[int, Set[NodeId]] = {}
        self.peak_buffer = 0

    # ------------------------------------------------------------------
    def _send(self, seq: int, payload: Any) -> None:
        if self.view:
            self._unacked[seq] = set(self.view)
            for mss in self.view:
                self.chan.send(mss, PlainDeliver(self.id, seq, seq, payload,
                                                 self.now))
        self.peak_buffer = max(self.peak_buffer, len(self._unacked))

    def _on_ack(self, dst: NodeId, payload: Message) -> None:
        if isinstance(payload, PlainDeliver):
            owing = self._unacked.get(payload.local_seq)
            if owing is not None:
                owing.discard(dst)
                if not owing:
                    del self._unacked[payload.local_seq]

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if (isinstance(payload, ViewRequest)
                and payload.epoch > self._epochs.get(payload.mss, -1)):
            self._epochs[payload.mss] = payload.epoch
            self._view_change(payload.mss, payload.join)

    def _view_change(self, mss: NodeId, join: bool) -> None:
        """A 'significant move': global update to every view member."""
        self.view_version += 1
        version = self.view_version

        def apply() -> None:
            if join:
                self.view[mss] = None
            else:
                self.view.pop(mss, None)
                for seq, owing in list(self._unacked.items()):
                    owing.discard(mss)
                    if not owing:
                        del self._unacked[seq]
            # Global notification: one control message per view member.
            for member in self.view:
                self.chan.send(member, ViewUpdate(version))
                self.control_messages += 1

        self.sim.schedule(self.update_latency, apply)


class HostViewMSS(NetNode):
    """A Mobile Support Station: buffers for, and serves, local members."""

    def __init__(self, fabric: Fabric, node_id: NodeId, sender: NodeId,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.sender = sender
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries,
                                    on_ack=self._on_ack)
        #: Registered MHs; a dict keeps the fan-out in registration order.
        self.members: Dict[NodeId, None] = {}
        #: True from this MSS's join request to its leave request.
        self.in_view = False
        self._requests = 0
        #: (local_seq) -> members still owing an ack (the MSS buffer).
        self._unacked: Dict[int, Set[NodeId]] = {}
        self.peak_buffer = 0

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            if self.members:
                self._unacked[payload.local_seq] = set(self.members)
                for mh in self.members:
                    self.chan.send(mh, PlainDeliver(
                        payload.source, payload.local_seq, payload.seq,
                        payload.payload, payload.created_at))
                self.peak_buffer = max(self.peak_buffer, len(self._unacked))
        elif isinstance(payload, Register):
            self.members[payload.mh] = None
            if not self.in_view:
                self._request_view(join=True)
        elif isinstance(payload, Deregister):
            self.members.pop(payload.mh, None)
            for owing in self._unacked.values():
                owing.discard(payload.mh)
            self._gc()
            if not self.members and self.in_view:
                self._request_view(join=False)

    def _request_view(self, join: bool) -> None:
        """Ask the sender for a (global) view update."""
        self.in_view = join
        self._requests += 1
        self.chan.send(self.sender, ViewRequest(self.id, join,
                                                self._requests))

    def _on_ack(self, dst: NodeId, payload: Message) -> None:
        if isinstance(payload, PlainDeliver):
            owing = self._unacked.get(payload.local_seq)
            if owing is not None:
                owing.discard(dst)
            self._gc()

    def _gc(self) -> None:
        done = [s for s, owing in self._unacked.items() if not owing]
        for s in done:
            del self._unacked[s]


class HostViewProtocol(BaselineNet):
    """Facade: sender + MSSs + MHs, mirroring the RingNet surface."""

    def __init__(self, sim: Simulator, n_mss: int,
                 rate_per_sec: float = 10.0, update_latency: float = 100.0,
                 wired: LinkSpec = WIRED, wireless: LinkSpec = WIRELESS,
                 mss_max_retries: int = 5):
        BaselineNet.__init__(self, sim, Fabric(sim), wireless)
        self.sender = HostViewSender(self.fabric, "hv-sender:0",
                                     rate_per_sec=rate_per_sec,
                                     update_latency=update_latency)
        self.msss: Dict[NodeId, HostViewMSS] = {}
        for i in range(n_mss):
            mss_id = make_id("mss", i)
            # Host-View semantics: the MSS buffers a message until every
            # local member acknowledged it — patient retransmission
            # (large max_retries) models that per-MSS buffering burden.
            self.msss[mss_id] = HostViewMSS(self.fabric, mss_id,
                                            self.sender.id,
                                            max_retries=mss_max_retries)
            self.fabric.connect(self.sender.id, mss_id, wired)

    def peak_buffers(self) -> dict:
        """Sender + per-MSS peak buffered messages (the E8 metric)."""
        mss_peaks = [m.peak_buffer for m in self.msss.values()]
        return {
            "sender_peak": self.sender.peak_buffer,
            "mss_peak_max": max(mss_peaks, default=0),
            "total_peak": self.sender.peak_buffer + sum(mss_peaks),
            "control_messages": self.sender.control_messages,
        }
