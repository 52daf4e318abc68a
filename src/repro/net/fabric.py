"""The fabric: node registry + link table + per-hop transmission model.

The fabric implements *direct-link* semantics: ``send(a, b, msg)``
requires a configured link between ``a`` and ``b``.  Protocols in this
repo (RingNet and all baselines) are overlay protocols whose logical
neighbors are always provisioned with a link by the topology builders, so
no routing layer is needed — matching the paper, where all communication
is between configured neighbors (ring next/prev, parent/child, AP↔MH).

A ``default_spec`` may be installed to auto-create links on first use,
which keeps ad-hoc tests short.

Hot-path contract: a transmission is ``NetNode.send`` -> ``Fabric.send``
-> ``_dispatch`` -> ``schedule_at``; an arrival ``_arrive`` ->
``NetNode.deliver`` -> ``on_message``.  ``Fabric.send`` and the two
``NetNode`` methods are seams ``perfbench`` shims; ``_dispatch`` is the
one backend seam (the live UDP fabric overrides it); under
sharding ``send`` asks ``is_local(src)`` first and, once the link model
has made its draws, ``is_local(dst)`` -> ``mint_child_key`` -> ``export``,
so action counters tick identically on every shard.  A send looks its
sender up once: the peer's ``Link``, the loss and jitter readers and the
fault overlay's verdict on the pair (resolved once per pair and
``FaultOverlay.epoch``) all live on the sender's :class:`_Sender`, and a
reader's ``random`` is a C callable, so a draw runs no python frame.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.net.address import NodeId
from repro.net.link import Link, LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode
from repro.runtime.api import Runtime


class _Sender:
    """One sender's slice of the fabric: ``peers`` (peer -> ``Link``),
    the ``random`` of its ``link.loss.<src>`` / ``link.jitter.<src>``
    readers (None until the first draw; keyed by sender, so its draws
    never depend on how other senders interleave — which the shard
    backend needs) and ``fx``, peer -> the overlay's verdict on the pair
    (None: unaffected), valid while ``epoch`` is the overlay's."""

    __slots__ = ("peers", "loss", "jitter", "fx", "epoch")

    def __init__(self):
        self.peers: Dict[NodeId, Link] = {}
        self.loss = self.jitter = None
        self.fx: Optional[dict] = None
        self.epoch: Optional[int] = None


class Fabric:
    """Message transmission substrate.

    Parameters
    ----------
    sim:
        The runtime that schedules deliveries (sim engine or live).
    default_spec:
        When given, unknown (src, dst) pairs get a link with this spec on
        first send instead of raising.
    """

    def __init__(self, sim: Runtime, default_spec: Optional[LinkSpec] = None):
        self.sim = sim
        self.nodes: Dict[NodeId, NetNode] = {}
        # Links, indexed the way the send path asks for them: sender's
        # record -> peer -> Link, one shared Link under both directions.
        self._adj: Dict[NodeId, _Sender] = defaultdict(_Sender)
        self.default_spec = default_spec
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_delivered = 0
        #: Optional :class:`repro.faults.overlay.FaultOverlay` consulted
        #: on every send while a fault action is active (partitions,
        #: degradation, flapping, correlated loss).  ``None`` — the
        #: default — keeps the send path exactly as before.
        self.fault_overlay = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register(self, node: NetNode) -> None:
        """Add a node; ids must be unique within a fabric."""
        if node.id in self.nodes:
            raise ValueError(f"duplicate node id {node.id!r}")
        self.nodes[node.id] = node

    def node(self, node_id: NodeId) -> NetNode:
        """Look up a node by id (KeyError when absent)."""
        return self.nodes[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        """True when a node with this id is registered."""
        return node_id in self.nodes

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------
    def connect(self, a: NodeId, b: NodeId, spec: LinkSpec) -> Link:
        """Create (or replace the spec of) the link between a and b."""
        if a == b:
            raise ValueError(f"self-link on {a!r}")
        link = self.link(a, b)
        if link is None:
            link = Link(min(a, b), max(a, b), spec)
            self._adj[a].peers[b] = link
            self._adj[b].peers[a] = link
        else:
            link.spec = spec
            link.up = True
        return link

    def disconnect(self, a: NodeId, b: NodeId) -> None:
        """Remove the link entirely (send() will then fail/auto-create)."""
        if self.link(a, b) is None:
            raise KeyError(f"no link {a!r} <-> {b!r}")
        del self._adj[a].peers[b]
        del self._adj[b].peers[a]

    def link(self, a: NodeId, b: NodeId) -> Optional[Link]:
        """The link between a and b, or None."""
        rec = self._adj.get(a)
        return rec.peers.get(b) if rec is not None else None

    def set_link_up(self, a: NodeId, b: NodeId, up: bool) -> None:
        """Raise/lower a link; messages on a down link are dropped."""
        link = self.link(a, b)
        if link is None:
            raise KeyError(f"no link {a!r} <-> {b!r}")
        link.up = up

    @property
    def links(self) -> list[Link]:
        """All configured links (stable order for reports)."""
        adj = self._adj
        return [adj[a].peers[b] for a in sorted(adj)
                for b in sorted(adj[a].peers) if a < b]

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: NodeId, dst: NodeId, msg: Message) -> bool:
        """Simulate one transmission hop.

        Returns True when the message was accepted for transmission
        (which does *not* imply delivery — it may still be lost).

        Under the sharded backend a send from a non-local sender is a
        no-op (the sender's shard performs it); a send whose destination
        lives on another shard is exported with the exact arrival time
        and causal key the sequential engine would have used.
        """
        sim = self.sim
        sh = sim.shard
        if sh is not None:
            if sim.current_owner is None:
                # A send from replicated control context would tick the
                # action counter on the sender's shard only, silently
                # desynchronizing causal keys across shards.  Every
                # legitimate send happens inside an ownership section
                # (the entity boundaries wrap them); fail loudly here
                # rather than diverge quietly later.
                raise RuntimeError(
                    f"fabric.send({src!r} -> {dst!r}) from control-plane "
                    f"context under sharding; wrap the sender in "
                    f"sim.call_owned(...)")
            if not sh.is_local(src):
                return True
        rec = self._adj[src]
        try:
            link = rec.peers[dst]
        except KeyError:
            if self.default_spec is None:
                raise KeyError(f"no link {src!r} <-> {dst!r} and no "
                               f"default spec") from None
            link = self.connect(src, dst, self.default_spec)
        self.messages_sent += 1

        msg.src = src
        msg.dst = dst
        msg.sent_at = sim.now
        link.sent += 1

        if not link.up:
            link.dropped += 1
            self.messages_dropped += 1
            return True
        spec = link.spec
        loss_prob = spec.loss_prob
        latency = spec.latency
        overlay = self.fault_overlay
        if overlay is not None and overlay.active:
            if rec.epoch != overlay.epoch:
                rec.epoch = overlay.epoch
                rec.fx = {}
            try:
                fx = rec.fx[dst]
            except KeyError:
                fx = rec.fx[dst] = overlay.verdict(src, dst)
            if fx is not None:
                if fx.blocks:
                    blocked = overlay.blocked_by(fx, sim.now)
                    if blocked is not None:
                        # Partition / flap-down: silent, like a down link.
                        overlay.note_drop(blocked)
                        link.dropped += 1
                        self.messages_dropped += 1
                        return True
                if fx.bursts:
                    burst = None    # every chain steps; the first drop counts
                    ge = fx.ge
                    for index, chain in fx.bursts:
                        if chain.step(ge) and burst is None:
                            burst = index
                    if burst is not None:
                        overlay.note_drop(burst)
                        link.dropped += 1
                        self.messages_dropped += 1
                        sim.trace.emit(sim.now, "net.loss", src=src,
                                       dst=dst, msg_kind=msg.kind)
                        return True
                if fx.loss is not None:
                    loss_prob = fx.loss
                if fx.factor != 1.0:
                    latency = latency * fx.factor
        if loss_prob > 0.0:
            draw = rec.loss
            if draw is None:
                draw = rec.loss = sim.streams.uniform(
                    f"link.loss.{src}").random
            if draw() < loss_prob:
                link.dropped += 1
                self.messages_dropped += 1
                sim.trace.emit(sim.now, "net.loss", src=src, dst=dst,
                               msg_kind=msg.kind)
                return True

        delay = latency
        if spec.jitter > 0.0:
            draw = rec.jitter
            if draw is None:
                draw = rec.jitter = sim.streams.uniform(
                    f"link.jitter.{src}").random
            delay += draw() * spec.jitter
        if spec.bandwidth_bps > 0.0:
            delay += msg.size_bits / spec.bandwidth_bps * 1000.0  # ms units

        if sh is not None and not sh.is_local(dst):
            sh.export(sim.now + delay, delay, sim.mint_child_key(), dst, msg)
            return True
        self._dispatch(dst, msg, delay)
        return True

    def _dispatch(self, dst: NodeId, msg: Message, delay: float) -> None:
        """Hand one accepted transmission to the runtime for arrival.

        The single backend-specific point of the send path: everything
        above (links, faults, loss, jitter, bandwidth) is pure modelling,
        so the UDP fabric (:mod:`repro.live.fabric`) overrides only this
        to route the arrival through a socket instead of the scheduler.
        """
        sim = self.sim
        sim.schedule_at(sim.now + delay, self._arrive, dst, msg, owner=dst)

    def _arrive(self, dst: NodeId, msg: Message) -> None:
        node = self.nodes.get(dst)
        if node is None or not node.alive:
            self.messages_dropped += 1
            return
        self.messages_delivered += 1
        node.deliver(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Fabric nodes={len(self.nodes)} links={len(self.links)} "
            f"sent={self.messages_sent} delivered={self.messages_delivered}>"
        )
