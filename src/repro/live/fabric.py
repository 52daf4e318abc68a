"""Live transmission substrates: the sim fabric and UDP sockets.

Both fabrics inherit the full link model from
:class:`~repro.net.fabric.Fabric` — link lookup, fault overlay, loss
and jitter draws, bandwidth delay — so a live run models exactly the
network the sim modelled:

* :class:`QueueFabric` — the sim fabric itself, on the live deadline
  heap: each arrival is scheduled when its message is sent, so
  deliveries execute with the logical timestamps the sim assigns.  The
  single-host multi-tier configuration.
* :class:`UdpFabric` — overrides the dispatch point: each node binds a
  real UDP socket on the loopback; messages are pickled onto the wire
  after their modelled link delay and delivered when the peer's socket
  actually receives them.  Real kernel scheduling, real serialization,
  real reordering.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Dict, Optional, Set, Tuple

from repro.live.runtime import LiveRuntime
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode

if TYPE_CHECKING:
    import asyncio


class QueueFabric(Fabric):
    """In-process fabric: the sim fabric on the live heap.

    It overrides nothing.  A send schedules its arrival at ``now +
    delay`` on the runtime's deadline heap, exactly as on the sim, so
    deliveries execute with the logical timestamps the sim assigns, in
    the sim's order, and the loop has nothing outside its heap to wait
    for.  Whether the destination exists is decided on arrival, as in
    the sim; an arrival due after the horizon stays on the heap.
    """

    #: Nothing outside the process reaches this fabric (see UdpFabric).
    foreign = 0


class _UdpEndpoint:
    """One node's receive protocol: unpickle and deliver inline.

    Only a datagram sent from a socket this fabric bound is unpickled;
    anything else landing on the port is dropped and counted in
    ``UdpFabric.foreign``.  A plain class, so this module loads without
    asyncio; all but ``datagram_received`` do nothing, as on
    ``asyncio.DatagramProtocol``.
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
        rt.run_inline(self.node_id, rt.wall_now(), fabric._arrive,
                      self.node_id, msg)

    def _ignore(self, *args) -> None:
        """Every other callback a datagram transport makes: connection
        made / lost, error received, and the flow-control pause / resume
        when its send buffer crosses a water mark."""

    connection_made = connection_lost = error_received = _ignore
    pause_writing = resume_writing = _ignore


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
        import asyncio
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
        import asyncio
        self._running = False
        for transport in self._transports.values():
            transport.close()
        # Let the loop process the close callbacks.
        await asyncio.sleep(0)
        self._transports.clear()
        self._ports.clear()
        self._bound.clear()
