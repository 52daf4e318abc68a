"""The single-logical-ring reliable multicast of Nikolaidis & Harms [16].

"A logical ring is maintained among all the Base Stations that handle
the multicast traffic of the same multicast group.  A token passing
protocol enforces a consistent view among all the BSs ... Since all the
control information has to be rotated along the ring, it may lead to
large latency and require large buffers when the ring becomes large."

Structurally this is RingNet degenerated to *one* ring containing every
base station, with mobile hosts attached directly to ring members — so
the implementation composes the real protocol stack
(:class:`~repro.core.protocol.RingNet`) over a hand-built single-ring
hierarchy.  That makes the E6 comparison an apples-to-apples measurement
of the *topology*: same ordering token, same reliability machinery, only
the distribution vehicle differs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.net.address import NodeId, make_id
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec, WIRED, WIRELESS
from repro.sim.engine import Simulator
from repro.topology.builder import provision_links
from repro.topology.hierarchy import Hierarchy
from repro.topology.ring import LogicalRing
from repro.topology.tiers import Tier


class SingleRingMulticast(RingNet):
    """One big token ring of base stations (the [16] distribution vehicle)."""

    @classmethod
    def build_ring(
        cls,
        sim: Simulator,
        n_bs: int,
        mhs_per_bs: int = 1,
        cfg: Optional[ProtocolConfig] = None,
        wired: LinkSpec = WIRED,
        wireless: LinkSpec = WIRELESS,
    ) -> "SingleRingMulticast":
        """Construct a ring of ``n_bs`` base stations with attached MHs.

        Base stations get ids ``bs:0 … bs:{n-1}``; the token ring spans
        all of them (it is the hierarchy's top — and only — ring), and
        every BS serves ``mhs_per_bs`` mobile hosts.
        """
        if n_bs < 1:
            raise ValueError("need at least one base station")
        fabric = Fabric(sim)
        hierarchy = Hierarchy()
        bss = [make_id("bs", i) for i in range(n_bs)]
        ring = LogicalRing("ring:bs", bss, leader=bss[0])
        # BS tier plays the BR role: the single ring is the ordering ring.
        hierarchy.add_ring(ring, Tier.BR, top=True)
        for i, bs in enumerate(bss):
            hierarchy.candidate_neighbors[bs] = [b for b in bss if b != bs]
        # Ring links plus candidate-neighbor fail-over links: after a BS
        # crash the maintenance splice pairs non-adjacent survivors, so
        # the links the repair assumes must exist up front (exactly what
        # provision_links does for the regular hierarchy; hand-wiring
        # only i -> i+1 left crash recovery without a path — found by
        # the validation fuzzer).
        provision_links(fabric, hierarchy, wired=wired)
        net = cls(sim, fabric, hierarchy, cfg=cfg, wireless=wireless)
        for i, bs in enumerate(bss):
            for m in range(mhs_per_bs):
                net.add_mobile_host(make_id("mh", i, m), bs)
        return net

    # ------------------------------------------------------------------
    @property
    def base_stations(self) -> List[NodeId]:
        """Ring members in ring order."""
        return self.hierarchy.top_ring.members

    def ring_peak_buffers(self) -> dict:
        """Max per-BS WQ/MQ occupancy — the quantity [16] grows with N."""
        reports = self.buffer_reports()
        return {
            "wq_peak": max(r["wq_peak"] for r in reports),
            "mq_peak": max(r["mq_peak"] for r in reports),
        }
