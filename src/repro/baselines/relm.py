"""The three-tier RelM scheme of Brown & Singh [6].

"The bottom tier consists of the MHs ... The middle tier consists of
MSSs ... The top tier consists of groups of MSSs.  Each group of MSSs is
controlled by an assigned supervisor machine called the Supervisor Host
(SH).  The SH is part of the wired network and it handles most of the
routing and protocol details for MHs."  RelM's selling point versus
Host-View is buffer concentration: buffering happens **once per region
at the SH** instead of at every MSS, "using fewer buffers in virtually
any system configuration"; its weakness (which RingNet targets) is that
SHs become bottlenecks as groups grow.

Implementation: the source unicasts each message to every SH; the SH
buffers it until every member-hosting MSS in its region acks, and keeps
a bounded catch-up window for intra-region handoffs; MSSs hold no buffer
beyond channel in-flight state and relay to attached members.  A handoff
re-registers the MH through the new MSS with its SH; intra-region
catch-up is served from the SH window.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.baselines.common import (
    BaselineNet,
    BaselineSource,
    Deregister,
    PlainDeliver,
    Register,
)
from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator


class MemberReport(Message):
    """MSS → SH: my member count changed (hosting / not hosting)."""

    size_bits = 128

    __slots__ = ("mss", "hosting")

    def __init__(self, mss: NodeId, hosting: bool):
        self.mss = mss
        self.hosting = hosting


class CatchUpRequest(Message):
    """MSS → SH: re-send your buffered window to me (post-handoff)."""

    size_bits = 128

    __slots__ = ("mss",)

    def __init__(self, mss: NodeId):
        self.mss = mss


class SupervisorHost(NetNode):
    """The SH: per-region buffering, routing, and catch-up service."""

    def __init__(self, fabric: Fabric, node_id: NodeId,
                 catchup_window: int = 64,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.catchup_window = catchup_window
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries,
                                    on_ack=self._on_ack)
        self.region_msss: List[NodeId] = []
        #: Member-hosting MSSs, in report order (an ordered set).
        self.hosting: Dict[NodeId, None] = {}
        #: local_seq -> (message, MSSs still owing an ack).
        self._unacked: Dict[int, tuple] = {}
        #: Recent messages kept for catch-up, by local_seq.
        self._window: Dict[int, PlainDeliver] = {}
        self.peak_buffer = 0

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            self._route(payload)
        elif isinstance(payload, MemberReport):
            if payload.hosting:
                self.hosting[payload.mss] = None
            else:
                self.hosting.pop(payload.mss, None)
        elif isinstance(payload, CatchUpRequest):
            for seq in sorted(self._window):
                m = self._window[seq]
                self.chan.send(payload.mss, PlainDeliver(
                    m.source, m.local_seq, m.seq, m.payload, m.created_at))

    def _route(self, msg: PlainDeliver) -> None:
        if self.hosting:
            self._unacked[msg.local_seq] = (msg, set(self.hosting))
            for mss in self.hosting:
                self.chan.send(mss, PlainDeliver(
                    msg.source, msg.local_seq, msg.seq, msg.payload,
                    msg.created_at))
        self._window[msg.local_seq] = msg
        if len(self._window) > self.catchup_window:
            del self._window[min(self._window)]
        occupancy = len(self._unacked) + len(self._window)
        self.peak_buffer = max(self.peak_buffer, occupancy)

    def _on_ack(self, dst: NodeId, payload: Message) -> None:
        if isinstance(payload, PlainDeliver):
            entry = self._unacked.get(payload.local_seq)
            if entry is not None:
                entry[1].discard(dst)
                if not entry[1]:
                    del self._unacked[payload.local_seq]


class RelMMSS(NetNode):
    """An MSS: relays SH traffic to attached members (no deep buffer)."""

    def __init__(self, fabric: Fabric, node_id: NodeId, sh: NodeId,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.sh = sh
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries)
        #: Registered MHs; a dict keeps the fan-out in registration order.
        self.members: Dict[NodeId, None] = {}
        self._seen: Set[int] = set()
        self.peak_inflight = 0

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            if payload.local_seq in self._seen:
                return
            self._seen.add(payload.local_seq)
            for mh in self.members:
                self.chan.send(mh, PlainDeliver(
                    payload.source, payload.local_seq, payload.seq,
                    payload.payload, payload.created_at))
            self.peak_inflight = max(self.peak_inflight, self.chan.in_flight)
        elif isinstance(payload, Register):
            first = not self.members
            self.members[payload.mh] = None
            if first:
                self.chan.send(self.sh, MemberReport(self.id, hosting=True))
            # Post-handoff catch-up from the SH's window.
            self.chan.send(self.sh, CatchUpRequest(self.id))
        elif isinstance(payload, Deregister):
            self.members.pop(payload.mh, None)
            if not self.members:
                self.chan.send(self.sh, MemberReport(self.id, hosting=False))


class RelMProtocol(BaselineNet):
    """Facade: source → SHs → MSSs → MHs, one SH per region."""

    def __init__(self, sim: Simulator, n_regions: int, msss_per_region: int,
                 rate_per_sec: float = 10.0, catchup_window: int = 64,
                 wired: LinkSpec = WIRED, wireless: LinkSpec = WIRELESS):
        if n_regions < 1 or msss_per_region < 1:
            raise ValueError("need at least one region and one MSS per region")
        BaselineNet.__init__(self, sim, Fabric(sim), wireless)
        self.shs: Dict[NodeId, SupervisorHost] = {}
        self.msss: Dict[NodeId, RelMMSS] = {}
        self.region_of: Dict[NodeId, NodeId] = {}
        for r in range(n_regions):
            sh_id = make_id("sh", r)
            sh = SupervisorHost(self.fabric, sh_id,
                                catchup_window=catchup_window)
            self.shs[sh_id] = sh
            for m in range(msss_per_region):
                mss_id = make_id("mss", r, m)
                self.msss[mss_id] = RelMMSS(self.fabric, mss_id, sh_id)
                self.region_of[mss_id] = sh_id
                sh.region_msss.append(mss_id)
                self.fabric.connect(sh_id, mss_id, wired)
        # The source fans out to every SH.
        self.source = BaselineSource(self.fabric, "src:0", list(self.shs),
                                     rate_per_sec=rate_per_sec,
                                     corresponding="<all-sh>")
        for sh_id in self.shs:
            self.fabric.connect(self.source.id, sh_id, wired)

    def peak_buffers(self) -> dict:
        """SH-concentrated buffer usage (the E8 metric)."""
        sh_peaks = [s.peak_buffer for s in self.shs.values()]
        mss_peaks = [m.peak_inflight for m in self.msss.values()]
        return {
            "sh_peak_max": max(sh_peaks, default=0),
            "mss_peak_max": max(mss_peaks, default=0),
            "total_peak": sum(sh_peaks) + sum(mss_peaks),
        }
