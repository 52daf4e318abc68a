"""Failure injection: crash/recover nodes, down/up links, partitions.

Used by the topology-maintenance tests and the token-recovery experiment
(E9) to break the top ring at controlled instants.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.net.address import NodeId
from repro.net.fabric import Fabric


class FailureInjector:
    """Schedules fail-stop and link faults against a fabric."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self.log: List[Tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    # Immediate operations
    # ------------------------------------------------------------------
    def crash_node(self, node_id: NodeId) -> None:
        """Fail-stop a node now."""
        self.fabric.node(node_id).crash()
        self.log.append((self.fabric.sim.now, "crash", node_id))
        self.fabric.sim.trace.emit(self.fabric.sim.now, "fault.crash", node=node_id)

    def recover_node(self, node_id: NodeId) -> None:
        """Recover a crashed node now (state as it was at crash)."""
        self.fabric.node(node_id).recover()
        self.log.append((self.fabric.sim.now, "recover", node_id))
        self.fabric.sim.trace.emit(self.fabric.sim.now, "fault.recover", node=node_id)

    def link_down(self, a: NodeId, b: NodeId) -> None:
        """Silently drop everything on the a<->b link from now on."""
        self.fabric.set_link_up(a, b, False)
        self.log.append((self.fabric.sim.now, "link_down", f"{a}|{b}"))

    def link_up(self, a: NodeId, b: NodeId) -> None:
        """Restore the a<->b link."""
        self.fabric.set_link_up(a, b, True)
        self.log.append((self.fabric.sim.now, "link_up", f"{a}|{b}"))

    def partition(self, group_a: Iterable[NodeId], group_b: Iterable[NodeId]) -> None:
        """Down every link crossing the two groups."""
        ga, gb = set(group_a), set(group_b)
        for link in self.fabric.links:
            if (link.a in ga and link.b in gb) or (link.a in gb and link.b in ga):
                link.up = False
        self.log.append((self.fabric.sim.now, "partition", f"{sorted(ga)}|{sorted(gb)}"))

    def heal(self) -> None:
        """Bring every link back up."""
        for link in self.fabric.links:
            link.up = True
        self.log.append((self.fabric.sim.now, "heal", "*"))

    # ------------------------------------------------------------------
    # Scheduled operations
    # ------------------------------------------------------------------
    def crash_node_at(self, time: float, node_id: NodeId) -> None:
        """Schedule a fail-stop at an absolute time."""
        self.fabric.sim.schedule_at(time, self.crash_node, node_id)

    def recover_node_at(self, time: float, node_id: NodeId) -> None:
        """Schedule a recovery at an absolute time."""
        self.fabric.sim.schedule_at(time, self.recover_node, node_id)
