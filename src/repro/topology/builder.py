"""The hierarchy shape, its one builder, and the matching fabric links.

:func:`build_hierarchy` realizes a :class:`HierarchyShape`: one top ring
of ``n_br`` Border Routers; below every BR ``depth`` levels of AG rings
(``depth == 1`` is paper Figure 1, deeper is the §3 sub-tier extension),
each AG of a ring parenting the next level's ring through that ring's
leader; under each AG of the deepest level ``aps_per_ag`` Access
Proxies; under each AP ``mhs_per_ap`` Mobile Hosts initially attached.
Candidate-contactor tables are filled so the handoff and
self-organization paths have fallbacks to try:

* each AP's candidate parents: its AG plus the AG ring's other members;
* each AG's candidate neighbors: the other members of its ring;
* each AG's candidate parents: at depth 1 its ring's parent BR plus the
  BR ring, deeper only its ring's parent AG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED
from repro.topology.hierarchy import Hierarchy
from repro.topology.ring import LogicalRing
from repro.topology.tiers import Tier


@dataclass
class HierarchyShape:
    """Shape of the RingNet hierarchy (paper Figure 1, plus §3 nesting).

    An AG ring has ``ags_per_br`` members at ``depth == 1`` and
    ``ring_size`` members in a nested hierarchy (:attr:`ags_per_ring`).
    ``mhs_per_ap`` may be zero; mobile hosts can instead be attached
    later by the mobility layer.
    """

    n_br: int = 3
    ags_per_br: int = 2
    aps_per_ag: int = 2
    mhs_per_ap: int = 2
    depth: int = 1
    ring_size: int = 3
    #: Lazily-materialized idle MHs behind every AP, *in addition to*
    #: the ``mhs_per_ap`` active ones built eagerly.  They cost O(#APs)
    #: memory until an open-world session arrival activates one — this
    #: is how the xxl/metro rungs describe 10^5–10^6-endpoint
    #: populations.
    idle_per_ap: int = 0

    def __post_init__(self) -> None:
        for name in ("n_br", "depth", "ags_per_br", "ring_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("aps_per_ag", "mhs_per_ap", "idle_per_ap"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def ags_per_ring(self) -> int:
        """Members of one AG ring: ``ags_per_br`` at depth 1, else
        ``ring_size``."""
        return self.ags_per_br if self.depth == 1 else self.ring_size

    @property
    def n_ag(self) -> int:
        """Total number of Access Gateways, over every level."""
        return self.n_br * sum(self.ags_per_ring ** level
                               for level in range(1, self.depth + 1))

    @property
    def n_ap(self) -> int:
        """Total number of Access Proxies (below the deepest AGs)."""
        return self.n_br * self.ags_per_ring ** self.depth * self.aps_per_ag

    @property
    def n_mh(self) -> int:
        """Total number of Mobile Hosts created at build time."""
        return self.n_ap * self.mhs_per_ap

    @property
    def total_nes(self) -> int:
        """Total network entities excluding MHs."""
        return self.n_br + self.n_ag + self.n_ap


def build_hierarchy(shape: HierarchyShape) -> Hierarchy:
    """Construct the hierarchy described by ``shape``.

    Node ids encode the path from the BR: ``br:0``, ``ag:0.1`` (BR 0,
    AG 1), ``ag:0.1.2`` (its ring's AG 2, at depth 2), ``ap:0.1.0``,
    ``mh:0.1.0.1``.  The protocol layer needs no changes for a nested
    shape — ring leaders interact with their parent NE generically at
    every level — which is the self-similarity argument of §3 ("if we
    consider each logical ring as one node, then the RingNet hierarchy
    becomes a tree").
    """
    h = Hierarchy()
    brs = [make_id("br", i) for i in range(shape.n_br)]
    h.add_ring(LogicalRing("ring:br", brs, leader=brs[0]), Tier.BR, top=True)

    def grow(parent: NodeId, path: str, level: int) -> None:
        ags = [f"ag:{path}.{j}" for j in range(shape.ags_per_ring)]
        h.add_ring(LogicalRing(f"ring:ag.{path}", ags, leader=ags[0]),
                   Tier.AG)
        h.set_parent(ags[0], parent)
        others = [b for b in brs if b != parent] if shape.depth == 1 else []
        for ag in ags:
            h.candidate_neighbors[ag] = [a for a in ags if a != ag]
            h.candidate_parents[ag] = [parent] + others
        for j, ag in enumerate(ags):
            if level < shape.depth:
                grow(ag, f"{path}.{j}", level + 1)
                continue
            for k in range(shape.aps_per_ag):
                ap = f"ap:{path}.{j}.{k}"
                h.add_node(ap, Tier.AP)
                h.set_parent(ap, ag)
                h.candidate_parents[ap] = [ag] + [a for a in ags if a != ag]
                for m in range(shape.mhs_per_ap):
                    h.add_node(f"mh:{path}.{j}.{k}.{m}", Tier.MH)

    for i, br in enumerate(brs):
        h.candidate_neighbors[br] = [b for b in brs if b != br]
        grow(br, str(i), 1)

    h.validate()
    return h


def structural_home(mh_id: str) -> Optional[NodeId]:
    """The AP an MH id is structurally homed under (builder convention).

    ``mh:<path>.<m>`` lives under ``ap:<path>``; ids outside the
    convention (e.g. churn-created MHs) have no structural home.
    """
    if not mh_id.startswith("mh:"):
        return None
    path, sep, _ = mh_id[3:].rpartition(".")
    return f"ap:{path}" if sep else None


def initial_attachments(h: Hierarchy) -> Dict[NodeId, NodeId]:
    """Map each build-time MH to its :func:`structural_home` AP, in
    build order."""
    return {mh: structural_home(mh)
            for mh, tier in h.tier_of.items() if tier is Tier.MH}


def provision_links(fabric: Fabric, hierarchy: Hierarchy,
                    wired: LinkSpec = WIRED) -> int:
    """Create fabric links for every logical adjacency in the hierarchy.

    Links created: ring next-links (both directions share one link),
    parent→child tree links, and links to candidate parents/neighbors so
    fail-over paths exist without new provisioning at failure time.
    AP↔MH wireless links are *not* created here; they appear when an MH
    attaches.

    Returns the number of links configured.
    """
    count = 0
    for ring in hierarchy.rings.values():
        members = ring.members
        n = len(members)
        if n > 1:
            for idx, node in enumerate(members):
                nxt = members[(idx + 1) % n]
                if fabric.link(node, nxt) is None:
                    fabric.connect(node, nxt, wired)
                    count += 1
    for child, parent in hierarchy.parent.items():
        if fabric.link(child, parent) is None:
            fabric.connect(child, parent, wired)
            count += 1
    for node, cands in list(hierarchy.candidate_parents.items()) + list(
        hierarchy.candidate_neighbors.items()
    ):
        for cand in cands:
            if fabric.link(node, cand) is None:
                fabric.connect(node, cand, wired)
                count += 1
    return count
