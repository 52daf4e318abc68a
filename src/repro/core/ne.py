"""The Network Entity: one BR, AG, or AP running the RingNet protocol.

A single class covers all three tiers — exactly which algorithms engage
is determined by the node's :class:`~repro.topology.hierarchy.NeighborView`:

* **top-ring NE (BR)** — Message-Ordering (token handling + τ-periodic
  Order-Assignment), raw Message-Forwarding, Message-Delivering to its
  children (AG-ring leaders), token recovery;
* **non-top-ring NE (AG)** — ordered Message-Forwarding around its ring,
  Message-Delivering to its AP children, the MMA table with smooth-
  handoff reservations;
* **bottom NE (AP)** — Message-Delivering to attached MHs over the
  wireless hop, handoff registration/detach handling, path
  (re-)establishment toward candidate AGs, neighbor notification.

Every NE runs the local-scope gap recovery of §4.2.3.

The paper's parallel/distributed claim — "each NE only maintains
information about its possible leader, previous, next, parent, and
children neighbors, and independently decides whether, when, and where
to order, forward, and deliver" — is structural here: the only topology
state an NE holds is its ``view`` (plus candidate-contactor lists), and
every decision is made in local message/timer handlers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.config import ProtocolConfig
from repro.core.datastructures import MessageQueue, WorkingQueue, WorkingTable
from repro.core.delivering import DeliveringMixin
from repro.core.forwarding import ForwardingMixin
from repro.core.messages import (
    DeliverDown,
    Detach,
    GapRequest,
    GapUnavailable,
    HandoffRegister,
    JoinAck,
    MembershipUpdate,
    NeighborNotify,
    PathReserve,
    RingOrdered,
    RingRaw,
    SourceData,
    TokenAnnounce,
    TokenPass,
    TokenRegen,
)
from repro.core.mma import MMATable
from repro.core.ordering import OrderingMixin
from repro.core.retransmission import GapRecoveryMixin
from repro.core.token_recovery import TokenRecoveryMixin
from repro.net.address import NodeId, tier_of
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.topology.hierarchy import NeighborView


class NetworkEntity(OrderingMixin, ForwardingMixin, DeliveringMixin,
                    GapRecoveryMixin, TokenRecoveryMixin, NetNode):
    """One protocol-running router (BR / AG / AP)."""

    def __init__(
        self,
        fabric: Fabric,
        node_id: NodeId,
        cfg: ProtocolConfig,
        view: NeighborView,
        ring_size_hint: int = 3,
    ):
        NetNode.__init__(self, fabric, node_id)
        self.cfg = cfg
        self.view = view
        self.ring_size_hint = ring_size_hint
        #: Multicast source attached to this (top-ring) NE, if any.
        self.source_id: Optional[NodeId] = None
        #: Nearby APs for smooth-handoff neighbor notification (APs).
        self.nearby_aps: List[NodeId] = []
        #: Candidate parent AGs for path building (APs; from hierarchy).
        self.parent_candidates: List[NodeId] = []

        self.mq = MessageQueue(cfg.mq_capacity)
        self.wq = WorkingQueue(cfg.wq_capacity)
        self.wt = WorkingTable()
        self.mma = MMATable()

        self.chan = ReliableChannel(
            self, rto=cfg.rto, max_retries=cfg.max_retries,
            on_give_up=self._channel_gave_up, on_ack=self._channel_acked,
        )

        self._init_ordering()
        self._init_forwarding()
        self._init_delivering()
        self._init_gap_recovery()
        self._init_token_recovery()

        #: True once this AP has a (reserved or active) path to its AG.
        #: Static mode provisions every AP at build time (Remark 2).
        self.path_established = cfg.static_ap_paths
        #: Joining MHs waiting for a cold AP's first downlink message
        #: (dynamic-path mode only): their JoinAck base is unknown until
        #: the AG's stream starts flowing here.
        self._pending_joins: List[NodeId] = []
        #: Per-MH attachment-epoch bookkeeping.  Registrations and
        #: detaches from the same MH can arrive out of order (handoff
        #: ping-pong inside one RTT, retransmission delays), so the AP
        #: orders them by the MH's attachment epoch: a Detach older than
        #: the latest registration is stale, and a Register at or below
        #: the highest detached epoch describes an attachment already
        #: torn down.  Both races were found by the validation fuzzer.
        self._mh_epoch: dict = {}
        self._mh_detached_epoch: dict = {}

        self._tau_timer = self.periodic(cfg.tau, self._tau_tick)
        self._maint_timer = self.periodic(
            max(cfg.gap_timeout / 2.0, cfg.tau), self._maintenance_tick
        )
        self.started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic tasks (idempotent)."""
        if self.started:
            return
        self.started = True
        if self.view.in_top_ring:
            self._tau_timer.start()
        self._maint_timer.start()

    def stop(self) -> None:
        """Disarm periodic tasks (the node object survives)."""
        self.started = False
        self._tau_timer.stop()
        self._maint_timer.stop()

    def adopt_view(self, view: NeighborView,
                   ring_size_hint: Optional[int] = None) -> None:
        """Structural half of a view update: pointers and ring-size hint.

        No behaviour — safe to run replicated on every shard, which the
        control plane requires: the token-loss signal chain schedules
        itself from :meth:`expected_token_rotation`, so ``ring_size_hint``
        must stay identical across replicas.
        """
        self.view = view
        if ring_size_hint is not None:
            self.ring_size_hint = ring_size_hint

    def _tau_tick(self) -> None:
        self.order_assignment()
        # Nothing left is orderable: park until a wake site makes an
        # entry coverable (see core/ordering.py).
        self._tau_timer.park()

    def _maintenance_tick(self) -> None:
        self.gap_check()
        # Expire stale standby reservations (AGs with an MMA population).
        for entry in self.mma.expire_standby(self.now, self.cfg.reservation_ttl):
            self.unregister_child(entry.ap)
            self.sim.trace.emit(self.now, "mma.expired", node=self.id,
                                ap=entry.ap)
        self._park_if_drained()

    # ------------------------------------------------------------------
    # Channel callbacks
    # ------------------------------------------------------------------
    def _channel_acked(self, dst: NodeId, payload: Message) -> None:
        if isinstance(payload, RingOrdered) and dst in self._kids:
            self._delivery_acked(dst, payload)

    def _channel_gave_up(self, dst: NodeId, payload: Message) -> None:
        if isinstance(payload, RingOrdered) and dst in self._kids:
            self._delivery_gave_up(dst, payload)
        elif isinstance(payload, TokenPass):
            # The token may be lost in transit; membership's maintenance
            # sweep will raise the Token-Loss signal (paper keeps the
            # multicast layer from self-diagnosing this).
            self.sim.trace.emit(self.now, "token.transit_give_up",
                                node=self.id, to=dst)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is None:
            return
        if isinstance(payload, SourceData):
            self.handle_source_data(payload)
        elif isinstance(payload, RingRaw):
            self.handle_ring_raw(payload)
        elif isinstance(payload, TokenPass):
            self.handle_token(payload)
        elif isinstance(payload, DeliverDown):
            self._handle_deliver_down(payload)
        elif isinstance(payload, RingOrdered):
            self.handle_ring_ordered(payload)
        elif isinstance(payload, GapRequest):
            self.handle_gap_request(payload)
        elif isinstance(payload, GapUnavailable):
            self.handle_gap_unavailable(payload)
        elif isinstance(payload, HandoffRegister):
            self._ap_handle_register(payload)
        elif isinstance(payload, Detach):
            self._ap_handle_detach(payload)
        elif isinstance(payload, TokenRegen):
            self.handle_token_regen(payload)
        elif isinstance(payload, TokenAnnounce):
            self.handle_token_announce(payload)
        elif isinstance(payload, PathReserve):
            self._ag_handle_path_reserve(payload)
        elif isinstance(payload, NeighborNotify):
            self._ap_handle_neighbor_notify(payload)
        elif isinstance(payload, MembershipUpdate):
            self._relay_membership(payload)

    def _handle_deliver_down(self, msg: DeliverDown) -> None:
        """Ordered message from the parent NE: buffer, ring-inject, deliver."""
        was_cold = not self.path_established
        self.path_established = True
        if (was_cold and self.mq.occupancy == 0
                and self.mq.rear < msg.global_seq - 1):
            # First message over a freshly built path: earlier sequences
            # are before this NE's time, not holes to chase.
            self.mq.anchor(msg.global_seq)
        # A ring leader injects the message into its ring (§4.2.2 case B);
        # handle_ring_ordered covers buffering + forwarding + delivery and
        # degenerates correctly for APs (no ring ⇒ no forward).
        self.handle_ring_ordered(msg)
        if was_cold and self._pending_joins:
            # The path just warmed up: deferred joiners start right
            # before the first message this AP will actually have.
            base = msg.global_seq - 1
            for mh in self._pending_joins:
                self.chan.send(mh, JoinAck(self.cfg.gid, base))
                self.register_child(mh, base)
                self.sim.trace.emit(self.now, "ap.register", node=self.id,
                                    mh=mh, base=base, joining=True)
            self._pending_joins.clear()

    # ------------------------------------------------------------------
    # AP-side behaviour: attachment, handoff, smooth-handoff reservation
    # ------------------------------------------------------------------
    def _ap_handle_register(self, msg: HandoffRegister) -> None:
        """An MH attached to this AP (fresh join or handoff arrival)."""
        mh = msg.mh_guid
        if msg.epoch <= self._mh_detached_epoch.get(mh, -1):
            # A late-arriving registration for an attachment whose
            # Detach this AP already processed: the MH moved on.
            return
        if msg.epoch >= self._mh_epoch.get(mh, 0):
            self._mh_epoch[mh] = msg.epoch
        if msg.joining and not self.path_established:
            # Cold AP (dynamic-path mode): the join completes once the
            # multicast path is built and the stream reaches us.
            if mh not in self._pending_joins:
                self._pending_joins.append(mh)
            self._relay_membership(MembershipUpdate(self.cfg.gid, [mh], [],
                                                    self.id))
            self.ap_ensure_path(active=True)
            if self.cfg.smooth_handoff:
                for ap in self.nearby_aps:
                    self.chan.send(ap, NeighborNotify(self.cfg.gid))
            return
        if msg.joining:
            base = self.mq.front
            self.chan.send(mh, JoinAck(self.cfg.gid, base))
        else:
            base = msg.max_delivered_seq
            if base + 1 < self.mq.valid_front:
                # We can no longer serve part of the MH's catch-up range.
                self.chan.send(
                    mh, GapUnavailable(self.cfg.gid, base + 1,
                                       self.mq.valid_front - 1))
                base = self.mq.valid_front - 1
        self.register_child(mh, base)
        self.sim.trace.emit(self.now, "ap.register", node=self.id, mh=mh,
                            base=base, joining=msg.joining)
        # Membership change propagates toward the top leader (§3).
        self._relay_membership(MembershipUpdate(self.cfg.gid, [mh], [], self.id))
        self.ap_ensure_path(active=True)
        if self.cfg.smooth_handoff:
            for ap in self.nearby_aps:
                self.chan.send(ap, NeighborNotify(self.cfg.gid))

    def _ap_handle_detach(self, msg: Detach) -> None:
        """An MH left this AP (handoff away or group leave)."""
        mh = msg.mh_guid
        if msg.epoch < self._mh_epoch.get(mh, 0):
            # Stale: a delayed retransmission for an attachment this MH
            # already superseded by re-registering here.
            return
        if msg.epoch > self._mh_detached_epoch.get(mh, -1):
            self._mh_detached_epoch[mh] = msg.epoch
        if mh in self._pending_joins:
            # A joiner parked behind a cold path left before it warmed.
            self._pending_joins.remove(mh)
        self.unregister_child(mh)
        self.sim.trace.emit(self.now, "ap.detach", node=self.id,
                            mh=msg.mh_guid)
        self._relay_membership(MembershipUpdate(self.cfg.gid, [],
                                                [msg.mh_guid], self.id))
        if not self._has_member_children():
            # Demote our path to a standby reservation.
            parent = self._path_target()
            if parent is not None:
                self.chan.send(parent, PathReserve(self.cfg.gid, self.id,
                                                   active=False))

    def _has_member_children(self) -> bool:
        return any(tier_of(c) == "mh" for c in self.wt.children)

    def _path_target(self) -> Optional[NodeId]:
        if self.view.parent is not None:
            return self.view.parent
        if self.parent_candidates:
            return self.parent_candidates[0]
        return None

    def ap_ensure_path(self, active: bool) -> None:
        """Build/refresh the multicast path toward a candidate AG (§3)."""
        target = self._path_target()
        if target is None:
            return
        self.chan.send(target, PathReserve(self.cfg.gid, self.id, active=active))

    def _ap_handle_neighbor_notify(self, msg: NeighborNotify) -> None:
        """A nearby AP saw a handoff: pre-reserve our own path."""
        if not self.cfg.smooth_handoff:
            return
        if not self.path_established or not self._has_member_children():
            self.ap_ensure_path(active=False)

    # ------------------------------------------------------------------
    # AG-side behaviour: the MMA table
    # ------------------------------------------------------------------
    def _ag_handle_path_reserve(self, msg: PathReserve) -> None:
        """Register/refresh the (group, AP) downlink entry."""
        if msg.active:
            self.mma.activate(msg.gid, msg.ap, self.now)
            self._park_if_drained()     # it may have been the last standby
        else:
            # Standby: create/refresh the entry, then make sure it is
            # demoted — an AP whose last member left must become
            # expirable again.
            self.mma.reserve(msg.gid, msg.ap, self.now)
            self.mma.deactivate(msg.gid, msg.ap, self.now)
            self._maint_timer.wake()    # a standby entry to age
        if not self.has_child(msg.ap):
            self.register_child(msg.ap)
            self.sim.trace.emit(self.now, "mma.path_built", node=self.id,
                                ap=msg.ap, active=msg.active)

    # ------------------------------------------------------------------
    # Membership relay (upward propagation, §3)
    # ------------------------------------------------------------------
    def _relay_membership(self, msg: MembershipUpdate) -> None:
        """Propagate membership changes toward the top leader (§3).

        AP → parent AG; non-leader ring NE → its ring leader; ring leader
        → its parent; the top-ring leader consumes the update.
        """
        if self.view.parent is not None and not self.view.in_top_ring:
            # AP, or a ring leader with a parent NE.
            self.chan.send(self.view.parent, MembershipUpdate(
                msg.gid, msg.joins, msg.leaves, msg.origin))
        elif not self.view.is_leader and self.view.next is not None \
                and self.view.next != self.id:
            # Non-leader ring member: hop along the ring toward the
            # leader (an NE only knows its immediate neighbors).
            self.chan.send(self.view.next, MembershipUpdate(
                msg.gid, msg.joins, msg.leaves, msg.origin))
        else:
            # Top-ring leader (or detached node): consume.
            self.sim.trace.emit(self.now, "membership.absorbed",
                                node=self.id, joins=len(msg.joins),
                                leaves=len(msg.leaves))

    # ------------------------------------------------------------------
    def buffer_report(self) -> dict:
        """Occupancy snapshot for the buffer-bound experiments (E3)."""
        return {
            "node": self.id,
            "wq": self.wq.occupancy,
            "wq_peak": self.wq.peak_occupancy,
            "mq": self.mq.occupancy,
            "mq_peak": self.mq.peak_occupancy,
            "mq_front": self.mq.front,
            "mq_rear": self.mq.rear,
        }
