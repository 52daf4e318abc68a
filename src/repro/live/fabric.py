"""Live transmission substrates: asyncio queues and UDP sockets.

Both fabrics inherit the full link model from
:class:`~repro.net.fabric.Fabric` — link lookup, fault overlay, loss
and jitter draws, bandwidth delay — and override only the dispatch
point, so a live run models exactly the network the sim modelled and
then adds a real data path on top:

* :class:`QueueFabric` — each node owns an ``asyncio.Queue`` rx queue
  drained by a pump task; a message is on the queue from the moment it
  is sent, its arrival deadline riding along, so deliveries execute
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
from typing import Dict, Optional, Tuple

from repro.live.runtime import LiveRuntime
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode


class QueueFabric(Fabric):
    """In-process fabric: per-node ``asyncio.Queue`` rx queues.

    The send path computes the modelled delay as usual and puts
    ``(arrival deadline, message)`` on the destination's rx queue there
    and then: the message is on the queue for the length of its flight,
    not for zero time after it.  The runtime is told the deadline
    (:meth:`LiveRuntime.expect_input`), so it yields to the pump tasks
    before it runs anything that late; the destination's pump re-injects
    the message into the deadline heap at its arrival time — so
    deliveries execute with the same logical timestamps the sim would
    assign, at one heap event per hop like the sim, while the data still
    flows through real asyncio machinery.  Whether the destination
    exists is decided on arrival, as in the sim: a queue (and, during a
    run, its pump) is opened by the first send to an id, registered or
    not.
    """

    def __init__(self, runtime: LiveRuntime,
                 default_spec: Optional[LinkSpec] = None):
        super().__init__(runtime, default_spec)
        self._queues: Dict[NodeId, asyncio.Queue] = {}
        self._pumps: Dict[NodeId, asyncio.Task] = {}
        self._running = False
        runtime.add_service(self)

    # -- Fabric overrides ----------------------------------------------
    def _dispatch(self, dst: NodeId, msg: Message, delay: float) -> None:
        queue = self._queues.get(dst)
        if queue is None:
            queue = self._open(dst)
        sim = self.sim
        at = sim.now + delay
        queue.put_nowait((at, msg))
        sim.expect_input(at)

    def _open(self, dst: NodeId) -> asyncio.Queue:
        """First send to ``dst``: its rx queue and, mid-run, its pump."""
        queue = self._queues[dst] = asyncio.Queue()
        if self._running:
            self._start_pump(dst, queue)
        return queue

    # -- service lifecycle ---------------------------------------------
    async def start(self) -> None:
        self._running = True
        # Sends made before the run (build-time joins) are already
        # queued; their deadlines were announced when they were sent.
        for node_id, queue in self._queues.items():
            self._start_pump(node_id, queue)

    async def stop(self) -> None:
        self._running = False
        # The loop has flushed every arrival due by the horizon; what is
        # still queued is due after it and is dropped, exactly like a
        # heap entry past the horizon.
        for task in self._pumps.values():
            task.cancel()
        if self._pumps:
            await asyncio.gather(*self._pumps.values(),
                                 return_exceptions=True)
        self._pumps.clear()

    def _start_pump(self, node_id: NodeId, queue: asyncio.Queue) -> None:
        self._pumps[node_id] = asyncio.get_running_loop().create_task(
            self._pump(node_id, queue))

    async def _pump(self, node_id: NodeId, queue: asyncio.Queue) -> None:
        while True:
            at, msg = await queue.get()
            # Re-inject through the deadline heap rather than calling
            # _arrive inline: the arrival then interleaves with other
            # work at the same logical time in deterministic heap
            # order, instead of landing wherever the pump task happened
            # to get scheduled.
            self.sim.schedule_at(at, self._arrive, node_id, msg,
                                 owner=node_id)


class _UdpEndpoint(asyncio.DatagramProtocol):
    """One node's receive protocol: unpickle and deliver inline."""

    def __init__(self, fabric: "UdpFabric", node_id: NodeId):
        self.fabric = fabric
        self.node_id = node_id

    def datagram_received(self, data: bytes, addr) -> None:
        msg = pickle.loads(data)
        rt: LiveRuntime = self.fabric.sim
        # Receives happen at the wall instant the kernel hands them up.
        rt.run_inline(self.node_id, rt.now, self.fabric._arrive,
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
        self._running = False
        self.bytes_on_wire = 0
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
            self._ports[node_id] = transport.get_extra_info("sockname")[1]
        self._running = True

    async def stop(self) -> None:
        self._running = False
        for transport in self._transports.values():
            transport.close()
        # Let the loop process the close callbacks.
        await asyncio.sleep(0)
        self._transports.clear()
        self._ports.clear()
