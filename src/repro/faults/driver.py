"""Execute a :class:`~repro.faults.plan.FaultPlan` against a scenario.

The driver schedules one **control-plane** activation event per action
(plus a heal/expiry event for bounded actions).  Control-plane events
run replicated in every shard under :mod:`repro.shard` — exactly like
churn ticks and scheduled crashes — so all shards install identical
overlay entries at identical instants and the per-send verdicts in
``Fabric.send()`` cannot depend on the shard count.

A crash calls the net's ``crash_ne`` (RingNet and the single-ring
baseline: the NE leaves the topology and maintenance repairs around it);
a net without one fail-stops the fabric node and emits ``fault.crash``
itself.

Selector resolution happens at activation time:

* glob/exact selectors resolve against the fabric's node registry
  (replicated structural state — nodes are created by replicated
  control code, so every shard sees the same registry);
* ``@token_holder`` and ``@token_holder_subtree`` need the data-plane
  answer to "who holds the token".  Sequentially the driver scans the
  top ring; under sharding the activation event is registered as a
  ``token.holders`` synchronization probe, so every shard resolves from
  the same merged holder set;
* ``@rest`` takes every fabric node not claimed by an earlier group.

Groups are made disjoint by first-match-wins over the group order.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.faults.overlay import FaultOverlay, _BurstEntry
from repro.faults.plan import (REST, TOKEN_HOLDER_SUBTREE, Crash, Degrade,
                               FaultPlan, Flap, LossBurst, Partition,
                               selector_matches)
from repro.topology.builder import structural_home


def subtree_nodes(net, root: str) -> set:
    """The hierarchy subtree under ``root`` plus attached leaves.

    NEs come from :meth:`~repro.topology.hierarchy.Hierarchy.subtree`
    (replicated state); MHs join the subtree of their *structural* home
    AP, sources that of their corresponding NE, so all shards compute
    the same set.
    """
    group = set(net.hierarchy.subtree(root))
    for mh_id in getattr(net, "mobile_hosts", {}):
        if structural_home(mh_id) in group:
            group.add(mh_id)
    for sid, src in getattr(net, "sources", {}).items():
        if src.corresponding in group:
            group.add(sid)
    return group


def token_holder(sim, net) -> str:
    """The top-ring NE holding the token right now (last member if none).

    "Who holds the token" is data-plane state scattered across shards;
    under the sharded backend the calling event was registered as a
    ``token.holders`` probe and runs right after the synchronization
    gathered the holder set, so every shard resolves the member the
    sequential engine's scan of the top ring would.
    """
    members = net.hierarchy.top_ring.members
    if sim.shard is not None:
        holding = set(sim.shard.consume_probe())
        holder = next((n for n in members if n in holding), None)
    else:
        ne = next((ne for ne in net.top_ring_nes()
                   if ne.held_token is not None), None)
        holder = ne.id if ne is not None else None
    return holder if holder is not None else members[-1]


class FaultDriver:
    """Schedules a plan's activation/heal events and owns the overlay."""

    def __init__(self, sim, net, plan: FaultPlan):
        self.sim = sim
        self.net = net
        self.plan = plan
        fabric = net.fabric
        if fabric.fault_overlay is None:
            fabric.fault_overlay = FaultOverlay(sim)
        self.overlay: FaultOverlay = fabric.fault_overlay
        self.fabric = fabric
        self._scheduled = False
        # Overlay entries (and fault.* trace indices) live in a driver-
        # local namespace so two drivers sharing a fabric cannot clobber
        # each other's entries; a lone driver gets base 0, keeping its
        # emitted indices equal to the plan's action indices.
        self._base = self.overlay.claim_namespace(len(plan.actions))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self) -> None:
        """Arm every action (call once, at build time)."""
        if self._scheduled:
            raise RuntimeError("fault plan already scheduled")
        self._scheduled = True
        for index, action in enumerate(self.plan.actions):
            dynamic = getattr(action, "dynamic", False)
            if dynamic and not hasattr(self.net, "top_ring_nes"):
                raise ValueError(
                    f"{action.kind} action {index} reads the token holder: "
                    f"it needs a token-passing system")
            event = self.sim.schedule_at(action.at_ms, self._activate, index)
            if dynamic and self.sim.shard is not None:
                # Resolution reads "who holds the token" — data-plane
                # state no single shard knows; gather it first.
                self.sim.shard.register_probe(event, "token.holders")

    # ------------------------------------------------------------------
    # Group resolution
    # ------------------------------------------------------------------
    def _resolve_groups(self, action: Partition) -> Tuple[frozenset, ...]:
        all_nodes = sorted(self.fabric.nodes)
        holder_subtree: Optional[set] = None
        if action.dynamic:
            holder_subtree = subtree_nodes(self.net,
                                          token_holder(self.sim, self.net))
        resolved: List[set] = []
        rest_at: Optional[int] = None
        claimed: set = set()
        for gi, selectors in enumerate(action.groups):
            members: set = set()
            for sel in selectors:
                if sel == REST:
                    rest_at = gi
                elif sel == TOKEN_HOLDER_SUBTREE:
                    members |= holder_subtree or set()
                else:
                    members.update(n for n in all_nodes
                                   if selector_matches(sel, n))
            members -= claimed  # first-match-wins disjointness
            claimed |= members
            resolved.append(members)
        if rest_at is not None:
            resolved[rest_at] |= set(all_nodes) - claimed
        for gi, members in enumerate(resolved):
            if not members:
                # A group matching nothing makes the whole partition a
                # silent no-op — a checked scenario would "pass" while
                # testing nothing.  Fail loudly (this runs replicated,
                # so every shard fails identically).
                raise ValueError(
                    f"partition group {gi} {action.groups[gi]!r} resolved "
                    f"to no fabric node")
        return tuple(frozenset(g) for g in resolved)

    # ------------------------------------------------------------------
    # Activation / expiry (control-plane events)
    # ------------------------------------------------------------------
    def _activate(self, index: int) -> None:
        sim, overlay = self.sim, self.overlay
        action = self.plan.actions[index]
        key = self._base + index
        if isinstance(action, Crash):
            target = action.target
            if action.dynamic:
                target = token_holder(sim, self.net)
            crash_ne = getattr(self.net, "crash_ne", None)
            if crash_ne is not None:
                crash_ne(target)
            else:
                self.fabric.node(target).crash()
                sim.trace.emit(sim.now, "fault.crash", node=target)
        elif isinstance(action, Partition):
            groups = self._resolve_groups(action)
            overlay.install_partition(key, groups, action.direction)
            sim.trace.emit(
                sim.now, "fault.partition", index=key,
                direction=action.direction,
                group_sizes=[len(g) for g in groups],
                heal_at=action.heal_at_ms)
            if action.heal_at_ms is not None:
                sim.schedule_at(action.heal_at_ms, self._heal, index)
        elif isinstance(action, Degrade):
            overlay.install_degrade(key, action.links, action.loss,
                                    action.latency_factor)
            sim.trace.emit(
                sim.now, "fault.degrade", index=key, links=action.links,
                loss=action.loss, latency_factor=action.latency_factor,
                until=action.until_ms)
            sim.schedule_at(action.until_ms, self._restore, index)
        elif isinstance(action, Flap):
            overlay.install_flap(key, action)
            sim.trace.emit(
                sim.now, "fault.flap", index=key, link=action.link,
                period_ms=action.period_ms, duty=action.duty,
                until=action.until_ms)
            sim.schedule_at(action.until_ms, self._restore, index)
        elif isinstance(action, LossBurst):
            overlay.install_burst(key, _BurstEntry(
                action.links, action.p_gb, action.p_bg,
                action.loss_good, action.loss_bad))
            sim.trace.emit(
                sim.now, "fault.loss_burst", index=key,
                links=action.links, p_gb=action.p_gb, p_bg=action.p_bg,
                loss_bad=action.loss_bad, until=action.until_ms)
            sim.schedule_at(action.until_ms, self._restore, index)
        else:  # pragma: no cover - plan validation rejects unknown kinds
            raise TypeError(f"unknown fault action {action!r}")

    def _heal(self, index: int) -> None:
        self.overlay.remove(self._base + index)
        self.sim.trace.emit(self.sim.now, "fault.heal",
                            index=self._base + index)

    def _restore(self, index: int) -> None:
        action_kind = self.plan.actions[index].kind
        self.overlay.remove(self._base + index)
        self.sim.trace.emit(self.sim.now, "fault.restore",
                            index=self._base + index, action=action_kind)
