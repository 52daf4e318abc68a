"""The RingNet facade: build and run one complete protocol instance.

:class:`RingNet` assembles every moving part on one simulator:

* builds (or adopts) a :class:`~repro.topology.hierarchy.Hierarchy` and
  provisions the fabric links;
* instantiates a :class:`~repro.core.ne.NetworkEntity` for every BR/AG/AP
  and wires parent→child delivery registration;
* injects the initial OrderingToken at the top-ring leader;
* exposes helpers to attach multicast sources and mobile hosts, drive
  handoffs, and crash NEs;
* subscribes to :class:`~repro.topology.maintenance.TopologyMaintenance`
  change records and translates them into neighbor-view updates plus the
  paper's Token-Loss / Multiple-Token signals.

This is the public API the examples and benchmarks use::

    sim = Simulator(seed=7)
    net = RingNet.build(sim, HierarchyShape(n_br=4, ags_per_br=3,
                                            aps_per_ag=2, mhs_per_ap=2))
    src = net.add_source("src:0", corresponding="br:0", rate_per_sec=20)
    net.start(); src.start()
    sim.run(until=10_000)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import ProtocolConfig
from repro.core.messages import TokenPass
from repro.core.mobile_host import MobileHost
from repro.core.ne import NetworkEntity
from repro.core.source import MulticastSource
from repro.core.token import OrderingToken
from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.runtime.api import Runtime
from repro.topology.builder import (
    HierarchyShape,
    build_hierarchy,
    initial_attachments,
    provision_links,
)
from repro.topology.hierarchy import Hierarchy
from repro.topology.maintenance import ChangeRecord, TopologyMaintenance
from repro.topology.tiers import Tier

#: Delay between a topology change and the membership protocol's
#: Token-Loss / Multiple-Token signal reaching the multicast layer
#: (models the maintenance algorithm's detection latency).
SIGNAL_DELAY = 10.0


class RingNet:
    """One group's RingNet protocol instance."""

    def __init__(
        self,
        sim: Runtime,
        fabric: Fabric,
        hierarchy: Hierarchy,
        cfg: Optional[ProtocolConfig] = None,
        wireless: LinkSpec = WIRELESS,
    ):
        self.sim = sim
        self.fabric = fabric
        self.hierarchy = hierarchy
        self.cfg = cfg if cfg is not None else ProtocolConfig()
        self.wireless = wireless
        self.nes: Dict[NodeId, NetworkEntity] = {}
        self.sources: Dict[NodeId, MulticastSource] = {}
        self.mobile_hosts: Dict[NodeId, MobileHost] = {}
        #: Lazily-materialized idle population: per-AP count of MHs that
        #: exist only as a number until :meth:`activate_catchment` turns
        #: one into a real :class:`MobileHost`.  O(#APs) memory for any
        #: population size — the mechanism behind the xxl/metro rungs.
        self._catchment: Dict[NodeId, int] = {}
        #: How many catchment slots :meth:`activate_catchment` has
        #: turned into real MHs so far.
        self.catchment_materialized = 0
        self.maintenance = TopologyMaintenance(hierarchy)
        self.maintenance.subscribe(self._on_topology_change)
        self._build_nes()
        self._started = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        sim: Runtime,
        shape: HierarchyShape,
        cfg: Optional[ProtocolConfig] = None,
        wired: LinkSpec = WIRED,
        wireless: LinkSpec = WIRELESS,
        fabric: Optional[Fabric] = None,
    ) -> "RingNet":
        """One-call construction: hierarchy, links, NEs, and MHs.

        ``shape`` may be of any depth.  ``fabric`` lets a backend supply
        its own transmission substrate (the live backend passes a queue-
        or socket-backed fabric); the default is the plain
        scheduler-dispatched :class:`Fabric`.
        """
        if fabric is None:
            fabric = Fabric(sim)
        hierarchy = build_hierarchy(shape)
        provision_links(fabric, hierarchy, wired=wired)
        net = cls(sim, fabric, hierarchy, cfg=cfg, wireless=wireless)
        for mh_id, ap_id in initial_attachments(hierarchy).items():
            net.add_mobile_host(mh_id, ap_id)
        return net

    def _build_nes(self) -> None:
        h = self.hierarchy
        for node_id, tier in sorted(h.tier_of.items()):
            if tier is Tier.MH:
                continue
            ring = h.ring_containing(node_id)
            ne = NetworkEntity(
                self.fabric, node_id, self.cfg,
                h.neighbor_view(node_id),
                ring_size_hint=ring.size if ring is not None else 1,
            )
            ne.parent_candidates = list(h.candidate_parents.get(node_id, ()))
            self.nes[node_id] = ne
        # Parent→child delivery registration (NE tier links only).  In
        # dynamic-path mode APs are left off the tree until a member or a
        # reservation pulls them in (§3 path building).
        from repro.net.address import tier_of
        for child, parent in h.parent.items():
            if parent in self.nes and child in self.nes:
                if not self.cfg.static_ap_paths and tier_of(child) == "ap":
                    continue
                self.nes[parent].register_child(child, from_seq=-1)
        # Nearby-AP sets for smooth handoff: sibling APs under the same AG
        # (with wired links between them for NeighborNotify traffic).
        for ag in h.nodes_of_tier(Tier.AG):
            aps = [c for c in h.children.get(ag, ()) if c in self.nes]
            for ap in aps:
                self.nes[ap].nearby_aps = [a for a in aps if a != ap]
                for other in aps:
                    if other != ap and self.fabric.link(ap, other) is None:
                        self.fabric.connect(ap, other, WIRED)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start all NEs and inject the initial OrderingToken.

        Each NE starts inside its own ownership section, and the token
        injection event is owned by the leader, so a shard worker only
        arms the machinery of the entities it hosts.
        """
        if self._started:
            return
        self._started = True
        for ne in self.nes.values():
            self.sim.call_owned(ne.id, ne.start)
        leader = self.hierarchy.top_ring.leader
        token = OrderingToken(gid=self.cfg.gid, token_id=(0, leader))
        self.sim.schedule(0.0, self.nes[leader].handle_token, TokenPass(token),
                          owner=leader)

    # ------------------------------------------------------------------
    # Sources and mobile hosts
    # ------------------------------------------------------------------
    def add_source(
        self,
        source_id: Optional[NodeId] = None,
        corresponding: Optional[NodeId] = None,
        rate_per_sec: float = 10.0,
        pattern: str = "cbr",
        rate_fn=None,
        flows=None,
    ) -> MulticastSource:
        """Attach a multicast source to a top-ring corresponding node.

        ``rate_fn`` (time → rate factor) and ``flows`` (a
        :class:`~repro.core.source.FlowProfile`) pass through to the
        source for the open-world workloads.
        """
        if corresponding is None:
            # Round-robin over top-ring members.
            members = self.hierarchy.top_ring.members
            corresponding = members[len(self.sources) % len(members)]
        if source_id is None:
            source_id = make_id("src", len(self.sources))
        src = MulticastSource(self.fabric, source_id, self.cfg,
                              corresponding, rate_per_sec, pattern,
                              rate_fn=rate_fn, flows=flows)
        self.fabric.connect(source_id, corresponding, WIRED)
        self.nes[corresponding].source_id = source_id
        self.sources[source_id] = src
        if self.sim.shard is not None:
            # A source rides with its corresponding node's shard.
            self.sim.shard.adopt(source_id, corresponding)
        return src

    def add_mobile_host(self, mh_id: NodeId, ap_id: NodeId,
                        join: bool = True) -> MobileHost:
        """Create an MH, link it to its first AP, optionally join."""
        mh = MobileHost(self.fabric, mh_id, self.cfg)
        self.fabric.connect(mh_id, ap_id, self.wireless)
        self.mobile_hosts[mh_id] = mh
        # The attachment pointer is structural state the mobility driver
        # reads; set it here (replicated under sharding) so it is valid
        # even where the behavioural join below is another shard's job.
        mh.ap = ap_id
        if self.sim.shard is not None:
            # An MH rides with the shard of the AP it first attaches to.
            self.sim.shard.adopt(mh_id, ap_id)
        if join:
            self.sim.call_owned(mh_id, mh.join, ap_id)
        return mh

    # ------------------------------------------------------------------
    # Lazy catchment population
    # ------------------------------------------------------------------
    @staticmethod
    def catchment_mh_id(ap_id: NodeId, index: int) -> NodeId:
        """The deterministic id of catchment member ``index`` of ``ap_id``.

        ``ap:i.j.k`` → ``mh:i.j.k.c<index>`` — the ``c`` segment keeps
        catchment ids disjoint from build-time MH ids for any shape.
        """
        return "mh:" + ap_id.split(":", 1)[1] + f".c{index}"

    def register_catchment(self, ap_id: NodeId, count: int) -> None:
        """Declare ``count`` idle MHs behind ``ap_id`` without creating
        them.

        Until one is activated it costs one dict slot per *AP*, not per
        MH: no :class:`MobileHost`, no channel, no wireless link, no
        timers.  Replicated structural state under sharding (every shard
        sees the same counts).
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        if ap_id not in self.nes:
            raise KeyError(f"unknown AP {ap_id!r}")
        self._catchment[ap_id] = self._catchment.get(ap_id, 0) + count

    def catchment_size(self, ap_id: NodeId) -> int:
        """Registered (materialized or not) catchment size of one AP."""
        return self._catchment.get(ap_id, 0)

    @property
    def catchment_total(self) -> int:
        """Total registered catchment population across all APs."""
        return sum(self._catchment.values())

    @property
    def catchment_idle(self) -> int:
        """Registered catchment slots never yet materialized — the
        population that currently costs no per-entity memory."""
        return self.catchment_total - self.catchment_materialized

    def activate_catchment(self, ap_id: NodeId, index: int,
                           join: bool = True) -> MobileHost:
        """Materialize catchment MH ``index`` of ``ap_id`` on first use.

        Idempotent: activating an already-materialized (or re-joining a
        departed) member returns the existing instance.  This is the
        "created on first event" entry point the open-world drivers hit
        — everything an MH owns (protocol state, channel, link, timers)
        comes into being here, not at build time.
        """
        n = self._catchment.get(ap_id, 0)
        if index >= n:
            raise IndexError(
                f"catchment index {index} out of range for {ap_id!r} "
                f"(registered {n})")
        mh_id = self.catchment_mh_id(ap_id, index)
        mh = self.mobile_hosts.get(mh_id)
        if mh is None:
            self.catchment_materialized += 1
            return self.add_mobile_host(mh_id, ap_id, join=join)
        if join and not mh.is_member:
            self.sim.call_owned(mh_id, mh.join, ap_id)
        return mh

    def handoff(self, mh_id: NodeId, new_ap: NodeId) -> None:
        """Move an MH to a new AP (creates the wireless link if needed)."""
        mh = self.mobile_hosts[mh_id]
        if self.fabric.link(mh_id, new_ap) is None:
            self.fabric.connect(mh_id, new_ap, self.wireless)
        self.sim.call_owned(mh_id, mh.handoff_to, new_ap)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def crash_ne(self, node_id: NodeId, detection_delay: float = 50.0) -> None:
        """Fail-stop an NE now; topology maintenance repairs it later.

        ``detection_delay`` models how long the membership protocol takes
        to notice and run its maintenance algorithm.

        The liveness flip is control-plane state (replicated in every
        shard — the fabric and the token-loss signal read it); timer
        teardown and the trace record belong to the crashed entity.
        """
        ne = self.nes[node_id]
        ne.crash()
        self.sim.call_owned(node_id, self._crash_local, ne)
        self.sim.schedule(detection_delay, self.maintenance.remove_ne, node_id,
                          owner=None)

    def _crash_local(self, ne: NetworkEntity) -> None:
        ne.stop()
        self.sim.trace.emit(self.sim.now, "fault.crash", node=ne.id)

    # ------------------------------------------------------------------
    # Topology change handling
    # ------------------------------------------------------------------
    def _on_topology_change(self, rec: ChangeRecord) -> None:
        """Translate a maintenance record into protocol-level updates.

        Runs in replicated control context under sharding, so every
        touch of an NE's *behavioural* machinery — (un)registration,
        which re-arms delivery and cancels channels, and view adoption,
        which can start the τ timer — goes through an ownership section:
        the NE's shard does the work, the others just tick counters.
        Structural reads (hierarchy, change record) stay replicated.
        """
        self._refresh_views()
        if rec.kind in ("ring_splice", "leader_change", "node_removed",
                        "top_ring_split"):
            # Paper: the membership protocol sends a Token-Loss message to
            # the multicast protocol when running topology maintenance.
            self._schedule_token_loss_signal()
        if rec.kind == "top_ring_merged":
            self._schedule_multiple_token_signal()
        if rec.kind == "reparent":
            child, new_parent = rec["child"], rec["new"]
            old_parent = rec["old"]
            if old_parent in self.nes:
                self.sim.call_owned(old_parent,
                                    self.nes[old_parent].unregister_child,
                                    child)
            if new_parent is not None and new_parent in self.nes and child in self.nes:
                if self.fabric.link(child, new_parent) is None:
                    self.fabric.connect(child, new_parent, WIRED)
                self.sim.call_owned(new_parent,
                                    self.nes[new_parent].register_child,
                                    child)
        if rec.kind == "leader_change":
            # The new leader inherits the tree link: move the parent NE's
            # delivery registration from the old leader to the new one.
            old_leader, new_leader = rec["old"], rec["new"]
            parent = self.hierarchy.parent.get(new_leader)
            if parent is not None and parent in self.nes:
                if new_leader in self.nes and \
                        self.fabric.link(new_leader, parent) is None:
                    self.fabric.connect(new_leader, parent, WIRED)
                self.sim.call_owned(parent, self._move_registration,
                                    parent, old_leader, new_leader)

    def _move_registration(self, parent: NodeId, old_leader: NodeId,
                           new_leader: NodeId) -> None:
        parent_ne = self.nes[parent]
        if parent_ne.has_child(old_leader):
            parent_ne.unregister_child(old_leader)
        if new_leader in self.nes and not parent_ne.has_child(new_leader):
            parent_ne.register_child(new_leader)

    def _refresh_views(self) -> None:
        h = self.hierarchy
        for node_id, ne in self.nes.items():
            if node_id not in h.tier_of:
                continue  # removed node
            ring = h.ring_containing(node_id)
            # Pointers and the ring-size hint are structural state the
            # replicated control plane reads (the token-loss signal
            # chain derives its cadence from the hint), so they adopt
            # on every shard; only arming the τ timer is behaviour.
            was_top = ne.view.in_top_ring
            ne.adopt_view(h.neighbor_view(node_id),
                          ring.size if ring is not None else 1)
            self.sim.call_owned(node_id, self._arm_tau_after_view, ne,
                                was_top)

    def _arm_tau_after_view(self, ne: NetworkEntity, was_top: bool) -> None:
        if ne.started and ne.view.in_top_ring and not was_top:
            ne._tau_timer.start()

    def _schedule_token_loss_signal(self, rounds: int = 6) -> None:
        """Deliver the membership protocol's Token-Loss message.

        The paper has the message received "by some node" (singular): we
        target the current top-ring leader.  Because a node that saw the
        token recently ignores the signal ("the Message-Ordering
        algorithm runs well") even when the token really is gone, the
        membership protocol's periodic maintenance is modelled as a few
        repeated signals one expected rotation apart — at most one of
        them triggers a regeneration.
        """
        def signal(round_no: int) -> None:
            members = self._current_top_members()
            if not members:
                return
            leader = self.hierarchy.top_ring.leader
            ne = self.nes.get(leader)
            if ne is None or not ne.alive:
                ne = next((self.nes[m] for m in members
                           if m in self.nes and self.nes[m].alive), None)
            if ne is None:
                return
            self.sim.call_owned(ne.id, ne.signal_token_loss)
            if round_no + 1 < rounds:
                self.sim.schedule(ne.expected_token_rotation() + SIGNAL_DELAY,
                                  signal, round_no + 1)
        self.sim.schedule(SIGNAL_DELAY, signal, 0)

    def _schedule_multiple_token_signal(self) -> None:
        def signal() -> None:
            for node_id in self._current_top_members():
                ne = self.nes.get(node_id)
                if ne is not None and ne.alive:
                    self.sim.call_owned(node_id, ne.signal_multiple_token)
        self.sim.schedule(SIGNAL_DELAY, signal)

    def _current_top_members(self) -> List[NodeId]:
        if self.hierarchy.top_ring_id is None:
            return []
        return self.hierarchy.top_ring.members

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def top_ring_nes(self) -> List[NetworkEntity]:
        """The NEs currently in the top (ordering) ring."""
        return [self.nes[n] for n in self._current_top_members()
                if n in self.nes]

    def buffer_reports(self) -> List[dict]:
        """Occupancy snapshots for every NE (E3)."""
        return [ne.buffer_report() for ne in self.nes.values()]

    def member_hosts(self) -> List[MobileHost]:
        """All MHs currently group members."""
        return [m for m in self.mobile_hosts.values() if m.is_member]

    def total_app_deliveries(self) -> int:
        """Application-level deliveries summed over all MHs."""
        return sum(m.delivered_count for m in self.mobile_hosts.values())
