"""Live transmission substrates: an in-process inbox and UDP sockets.

Both fabrics inherit the full link model from
:class:`~repro.net.fabric.Fabric` — link lookup, fault overlay, loss
and jitter draws, bandwidth delay — and override only the dispatch
point, so a live run models exactly the network the sim modelled and
then adds a real data path on top:

* :class:`QueueFabric` — one inbox for the whole population, drained
  by one pump task; a message is in the fabric's hands from the moment
  it is sent, its arrival deadline riding along, so deliveries execute
  with the same logical timestamps the sim would assign.  The
  single-host multi-tier configuration.
* :class:`UdpFabric` — each node binds a real UDP socket on the
  loopback; messages are pickled onto the wire after their modelled
  link delay and delivered when the peer's socket actually receives
  them.  Real kernel scheduling, real serialization, real reordering.
"""

from __future__ import annotations

import asyncio
import pickle
from collections import deque
from typing import Deque, Dict, Optional, Set, Tuple

from repro.live.runtime import LiveRuntime
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode


class QueueFabric(Fabric):
    """In-process fabric: one inbox, drained by one pump task.

    The send path computes the modelled delay as usual and appends
    ``(arrival deadline, dst, message)`` to the inbox there and then:
    the fabric holds the message for the length of its flight, not for
    zero time after it.  The runtime is told the deadline
    (:meth:`LiveRuntime.expect_input`), so it yields to the pump before
    it runs anything that late; the pump wakes once per yield and
    re-injects the whole inbox into the deadline heap, each message at
    its arrival time and in send order — so deliveries execute with the
    same logical timestamps the sim would assign, at one append and one
    heap event per hop, while every arrival is still input that a
    foreign task hands the loop.  Whether the destination exists is
    decided on arrival, as in the sim.
    """

    #: Nothing outside the process reaches the inbox (see UdpFabric).
    foreign = 0

    def __init__(self, runtime: LiveRuntime,
                 default_spec: Optional[LinkSpec] = None):
        super().__init__(runtime, default_spec)
        self._inbox: Deque[Tuple[float, NodeId, Message]] = deque()
        #: What the parked pump awaits; None while it runs or is not up.
        self._idle: Optional[asyncio.Future] = None
        self._pump_task: Optional[asyncio.Task] = None
        runtime.add_service(self)

    # -- Fabric overrides ----------------------------------------------
    def _dispatch(self, dst: NodeId, msg: Message, delay: float) -> None:
        sim = self.sim
        at = sim.now + delay
        self._inbox.append((at, dst, msg))
        sim.expect_input(at)
        idle = self._idle
        if idle is not None:
            self._idle = None
            idle.set_result(None)

    # -- service lifecycle ---------------------------------------------
    async def start(self) -> None:
        # Sends made before the run (build-time joins) are already in
        # the inbox; their deadlines were announced when they were sent.
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump())

    async def stop(self) -> None:
        # The loop has flushed every arrival due by the horizon; what is
        # still in the inbox is due after it and is dropped, exactly
        # like a heap entry past the horizon.
        self._idle = None
        self._pump_task.cancel()
        await asyncio.gather(self._pump_task, return_exceptions=True)

    async def _pump(self) -> None:
        inbox = self._inbox
        schedule_at, arrive = self.sim.schedule_at, self._arrive
        loop = asyncio.get_running_loop()
        while True:
            # Re-inject through the deadline heap rather than calling
            # _arrive inline: the arrival then interleaves with other
            # work at the same logical time in deterministic heap
            # order, instead of landing wherever this task happened to
            # get scheduled.
            while inbox:
                at, dst, msg = inbox.popleft()
                schedule_at(at, arrive, dst, msg, owner=dst)
            self._idle = loop.create_future()
            await self._idle


class _UdpEndpoint(asyncio.DatagramProtocol):
    """One node's receive protocol: unpickle and deliver inline.

    Only a datagram sent from a socket this fabric bound is unpickled;
    anything else landing on the port is dropped and counted in
    ``UdpFabric.foreign``.
    """

    def __init__(self, fabric: "UdpFabric", node_id: NodeId):
        self.fabric = fabric
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        fabric = self.fabric
        if addr not in fabric._bound:
            fabric.foreign += 1
            return
        msg = pickle.loads(data)
        rt: LiveRuntime = fabric.sim
        # Receives happen at the wall instant the kernel hands them up.
        rt.run_inline(self.node_id, rt.now, fabric._arrive,
                      self.node_id, msg)


class UdpFabric(Fabric):
    """Loopback UDP fabric: one real socket per node.

    Messages traverse pickle → kernel UDP → unpickle, so a run
    exercises real serialization and real socket scheduling on top of
    the modelled link delay.  The node population must be complete
    before the run starts: sockets are bound (to OS-assigned loopback
    ports) in :meth:`start`, and late registration raises rather than
    silently dropping traffic.
    """

    def __init__(self, runtime: LiveRuntime,
                 default_spec: Optional[LinkSpec] = None,
                 host: str = "127.0.0.1"):
        super().__init__(runtime, default_spec)
        self.host = host
        self._ports: Dict[NodeId, int] = {}
        self._transports: Dict[NodeId, asyncio.DatagramTransport] = {}
        #: Every ``(host, port)`` this fabric bound: the only senders
        #: whose datagrams are unpickled.
        self._bound: Set[Tuple[str, int]] = set()
        self._running = False
        self.bytes_on_wire = 0
        #: Datagrams from any other sender, dropped unread.
        self.foreign = 0
        runtime.add_service(self)

    # -- Fabric overrides ----------------------------------------------
    def register(self, node: NetNode) -> None:
        if self._running:
            raise RuntimeError(
                f"UdpFabric cannot add node {node.id!r} after start: "
                "sockets bind at startup (use QueueFabric for open-world "
                "populations)")
        super().register(node)

    def _dispatch(self, dst: NodeId, msg: Message, delay: float) -> None:
        # The modelled link delay elapses before the wire; the socket
        # then adds whatever the kernel really takes.
        self.sim.schedule(delay, self._transmit, msg.src, dst, msg,
                          owner=msg.src)

    def _transmit(self, src: NodeId, dst: NodeId, msg: Message) -> None:
        transport = self._transports.get(src)
        port = self._ports.get(dst)
        if transport is None or port is None:
            self.messages_dropped += 1
            return
        data = pickle.dumps(msg)
        self.bytes_on_wire += len(data)
        transport.sendto(data, (self.host, port))

    # -- service lifecycle ---------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        for node_id in sorted(self.nodes):
            transport, _ = await loop.create_datagram_endpoint(
                lambda nid=node_id: _UdpEndpoint(self, nid),
                local_addr=(self.host, 0))
            self._transports[node_id] = transport
            sockname = transport.get_extra_info("sockname")
            self._bound.add(sockname)
            self._ports[node_id] = sockname[1]
        self._running = True

    async def stop(self) -> None:
        self._running = False
        for transport in self._transports.values():
            transport.close()
        # Let the loop process the close callbacks.
        await asyncio.sleep(0)
        self._transports.clear()
        self._ports.clear()
        self._bound.clear()
