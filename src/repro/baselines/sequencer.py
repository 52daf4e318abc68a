"""Central-sequencer total order (classic fixed-sequencer comparator).

Not a scheme from the paper's related work, but the canonical
alternative to token-based total ordering (used by e.g. Amoeba and many
GCSs): all sources funnel through one sequencer node that assigns global
sequence numbers and fans the stream out to every access point hosting
members.  It gives the ordering-latency ablation a second reference
point: the token approach pays up to one ring rotation of ordering
delay but has no single hot node; the sequencer orders in one hop but
concentrates all load and is a single point of failure.
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
from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator


class SequencerNode(NetNode):
    """Assigns global sequence numbers and fans out to access points."""

    def __init__(self, fabric: Fabric, node_id: NodeId,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries)
        self.next_global_seq = 0
        self.aps: List[NodeId] = []
        self.sequenced = 0

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            gseq = self.next_global_seq
            self.next_global_seq += 1
            self.sequenced += 1
            for ap in self.aps:
                self.chan.send(ap, PlainDeliver(
                    payload.source, payload.local_seq, gseq,
                    payload.payload, payload.created_at))


class SequencerAP(NetNode):
    """An access point relaying the sequenced stream to its members."""

    def __init__(self, fabric: Fabric, node_id: NodeId,
                 rto: float = 25.0, max_retries: int = 5):
        NetNode.__init__(self, fabric, node_id)
        self.chan = ReliableChannel(self, rto=rto, max_retries=max_retries)
        #: Registered MHs; a dict keeps the fan-out in registration order.
        self.members: Dict[NodeId, None] = {}

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, PlainDeliver):
            for mh in self.members:
                self.chan.send(mh, PlainDeliver(
                    payload.source, payload.local_seq, payload.seq,
                    payload.payload, payload.created_at))
        elif isinstance(payload, Register):
            self.members[payload.mh] = None
        elif isinstance(payload, Deregister):
            self.members.pop(payload.mh, None)


class SequencerMulticast(BaselineNet):
    """Facade: sources → sequencer → APs → MHs."""

    def __init__(self, sim: Simulator, n_aps: int,
                 wired: LinkSpec = WIRED, wireless: LinkSpec = WIRELESS):
        BaselineNet.__init__(self, sim, Fabric(sim), wireless)
        self.sequencer = SequencerNode(self.fabric, "seq:0")
        self.aps: Dict[NodeId, SequencerAP] = {}
        for i in range(n_aps):
            ap_id = make_id("ap", i)
            self.aps[ap_id] = SequencerAP(self.fabric, ap_id)
            self.sequencer.aps.append(ap_id)
            self.fabric.connect(self.sequencer.id, ap_id, wired)
        self.sources: Dict[NodeId, BaselineSource] = {}

    def add_source(self, source_id: Optional[NodeId] = None,
                   rate_per_sec: float = 10.0,
                   pattern: str = "cbr") -> BaselineSource:
        """Attach a source feeding the sequencer."""
        if source_id is None:
            source_id = make_id("src", len(self.sources))
        src = BaselineSource(self.fabric, source_id, [self.sequencer.id],
                             rate_per_sec=rate_per_sec, pattern=pattern)
        self.fabric.connect(source_id, self.sequencer.id, WIRED)
        self.sources[source_id] = src
        return src
