"""Network substrate: nodes, links, fabric, and reliable transport.

This package simulates the "mobile Internet" the paper deploys on:
wired links between routers (low loss, moderate latency) and wireless
links between Access Proxies and Mobile Hosts (higher loss and jitter).
Protocol layers above only see :class:`~repro.net.message.Message`
arrivals at :class:`~repro.net.node.NetNode` handlers, so any protocol in
this repo runs unchanged across link parameterizations.

Layering
--------
* :class:`Fabric` owns the node registry and links and performs the
  per-hop latency/loss/bandwidth simulation.
* :class:`NetNode` is the base class for every protocol entity (BR, AG,
  AP, MH, source, baseline hosts); it offers fire-and-forget ``send``.
* :class:`ReliableChannel` adds per-peer sequencing, positive acks,
  retransmission timers, and bounded retries on top of a ``NetNode`` —
  the paper's "some retransmission scheme" for both data and the
  OrderingToken, with best-effort give-up semantics.

Crashes and link faults mid-run are :mod:`repro.faults` plan actions.
"""

from repro.net.address import NodeId, make_id
from repro.net.message import Message
from repro.net.link import Link, LinkSpec, WIRED, WIRELESS, LOSSY_WIRELESS
from repro.net.node import NetNode
from repro.net.fabric import Fabric
from repro.net.transport import ReliableChannel, TransportStats

__all__ = [
    "NodeId",
    "make_id",
    "Message",
    "Link",
    "LinkSpec",
    "WIRED",
    "WIRELESS",
    "LOSSY_WIRELESS",
    "NetNode",
    "Fabric",
    "ReliableChannel",
    "TransportStats",
]
