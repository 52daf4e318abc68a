"""RingNet without total ordering (paper Remark 3).

"If totally-ordered property is not required, then multicast using the
RingNet hierarchy will be more efficient and message latency will
decrease due to the fact that ordering operations are not required in
the top logical ring."

Same hierarchy, same links, same reliable channels — but no token, no
WQ/Order-Assignment wait, no in-sequence delivery gating.  Every node
forwards on arrival:

* a top-ring node receiving a source message floods it around the top
  ring (stop before the originating node) and delivers it down;
* lower rings forward leader-injected messages around (stop before the
  leader) and each member delivers down;
* APs deliver to attached member MHs on arrival.

Duplicates are suppressed by (source, local_seq) at every hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.baselines.common import (
    BaselineNet,
    BaselineSource,
    Deregister,
    PlainDeliver,
    Register,
)
from repro.net.address import NodeId, make_id, tier_of
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator
from repro.topology.builder import (
    HierarchyShape,
    build_hierarchy,
    initial_attachments,
    provision_links,
)
from repro.topology.hierarchy import Hierarchy, NeighborView
from repro.topology.tiers import Tier


class RawFlood(Message):
    """A data message circulating a ring / flowing down the tree."""

    __slots__ = ("origin_ring_node", "source", "local_seq", "payload",
                 "created_at")

    def __init__(self, origin_ring_node: NodeId, source: NodeId,
                 local_seq: int, payload, created_at: float):
        self.origin_ring_node = origin_ring_node
        self.source = source
        self.local_seq = local_seq
        self.payload = payload
        self.created_at = created_at


class UnorderedNE(NetNode):
    """A BR/AG/AP in the unordered variant: forward-on-arrival."""

    def __init__(self, fabric: Fabric, node_id: NodeId, view: NeighborView,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.view = view
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries)
        #: Dedup state per source, as the channel's ``_Peer`` keeps it:
        #: every local_seq below ``floor`` was forwarded, plus the
        #: out-of-order ones above it in ``sparse``.
        self._seen: Dict[NodeId, List] = {}
        #: Registered MHs; a dict keeps the fan-out in registration order.
        self.members: Dict[NodeId, None] = {}

    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            # Source injection at a top-ring node.
            self._ingest(RawFlood(self.id, payload.source, payload.local_seq,
                                  payload.payload, payload.created_at),
                         ring_origin=True)
        elif isinstance(payload, RawFlood):
            self._ingest(payload, ring_origin=False)
        elif isinstance(payload, Register):
            self.members[payload.mh] = None
        elif isinstance(payload, Deregister):
            self.members.pop(payload.mh, None)

    def _ingest(self, msg: RawFlood, ring_origin: bool) -> None:
        seen = self._seen.get(msg.source)
        if seen is None:
            seen = self._seen[msg.source] = [0, set()]
        floor, sparse = seen
        seq = msg.local_seq
        if seq < floor or seq in sparse:
            return
        if seq == floor:
            floor += 1
            while floor in sparse:
                sparse.remove(floor)
                floor += 1
            seen[0] = floor
        else:
            sparse.add(seq)
        self._ring_forward(msg)
        self._deliver_down(msg)

    def _ring_forward(self, msg: RawFlood) -> None:
        nxt = self.view.next
        if nxt is None or nxt == self.id:
            return
        if self.view.in_top_ring:
            stop = msg.origin_ring_node  # full circle
        else:
            stop = self.view.leader  # leader injected it
        if nxt == stop:
            return
        self.chan.send(nxt, RawFlood(msg.origin_ring_node, msg.source,
                                     msg.local_seq, msg.payload,
                                     msg.created_at))

    def _deliver_down(self, msg: RawFlood) -> None:
        for child in self.view.children:
            self.chan.send(child, RawFlood(child, msg.source, msg.local_seq,
                                           msg.payload, msg.created_at))
        for mh in self.members:
            self.chan.send(mh, PlainDeliver(msg.source, msg.local_seq,
                                            msg.local_seq, msg.payload,
                                            msg.created_at))


class UnorderedRingNet(BaselineNet):
    """Facade mirroring :class:`repro.core.protocol.RingNet`'s surface."""

    def __init__(self, sim: Simulator, fabric: Fabric, hierarchy: Hierarchy,
                 wireless: LinkSpec = WIRELESS, rto: float = 25.0,
                 max_retries: int = 5):
        BaselineNet.__init__(self, sim, fabric, wireless)
        self.hierarchy = hierarchy
        self.rto = rto
        self.max_retries = max_retries
        self.nes: Dict[NodeId, UnorderedNE] = {}
        self.sources: Dict[NodeId, BaselineSource] = {}
        for node_id, tier in sorted(hierarchy.tier_of.items()):
            if tier is Tier.MH:
                continue
            self.nes[node_id] = UnorderedNE(
                fabric, node_id, hierarchy.neighbor_view(node_id),
                rto=rto, max_retries=max_retries,
            )

    @classmethod
    def build(cls, sim: Simulator, shape: HierarchyShape,
              wired: LinkSpec = WIRED, wireless: LinkSpec = WIRELESS,
              rto: float = 25.0,
              max_retries: int = 5) -> "UnorderedRingNet":
        """One-call construction matching ``RingNet.build``."""
        fabric = Fabric(sim)
        hierarchy = build_hierarchy(shape)
        provision_links(fabric, hierarchy, wired=wired)
        net = cls(sim, fabric, hierarchy, wireless=wireless, rto=rto,
                  max_retries=max_retries)
        for mh_id, ap_id in initial_attachments(hierarchy).items():
            net.add_mobile_host(mh_id, ap_id)
        return net

    def add_source(self, source_id: Optional[NodeId] = None,
                   corresponding: Optional[NodeId] = None,
                   rate_per_sec: float = 10.0,
                   pattern: str = "cbr") -> BaselineSource:
        """Attach a source to a top-ring node."""
        if corresponding is None:
            members = self.hierarchy.top_ring.members
            corresponding = members[len(self.sources) % len(members)]
        if source_id is None:
            source_id = make_id("src", len(self.sources))
        src = BaselineSource(self.fabric, source_id, [corresponding],
                             rate_per_sec, pattern,
                             rto=self.rto, max_retries=self.max_retries)
        self.fabric.connect(source_id, corresponding, WIRED)
        self.sources[source_id] = src
        return src
