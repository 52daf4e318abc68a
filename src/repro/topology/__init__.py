"""RingNet topology: tiers, logical rings, and the ring-of-rings hierarchy.

The hierarchy (paper Figure 1) is pure data — node ids, ring membership
order, leader designation, and parent/child links — deliberately decoupled
from the fabric and from protocol state.  :mod:`repro.topology.builder`
holds the one shape type (:class:`HierarchyShape`), the one builder
(:func:`build_hierarchy`, any depth of AG rings) and the matching
fabric links; maintenance operations (:mod:`repro.topology.maintenance`)
mutate the hierarchy the way the paper's (omitted)
membership/topology-maintenance protocol would:
splice a failed node out of its ring, re-elect leaders, merge rings —
returning change records the protocol layer turns into neighbor-pointer
updates and Token-Loss / Multiple-Token signals.
"""

from repro.topology.tiers import Tier
from repro.topology.ring import LogicalRing
from repro.topology.hierarchy import Hierarchy, NeighborView
from repro.topology.builder import (HierarchyShape, build_hierarchy,
                                    provision_links)
from repro.topology.maintenance import TopologyMaintenance, ChangeRecord

__all__ = [
    "Tier",
    "LogicalRing",
    "Hierarchy",
    "NeighborView",
    "HierarchyShape",
    "build_hierarchy",
    "provision_links",
    "TopologyMaintenance",
    "ChangeRecord",
]
