"""The handoff driver: turns a movement model into protocol handoffs.

Works against any facade exposing ``handoff(mh_id, new_ap)`` and a
``sim`` attribute (RingNet and the baseline protocols all do), so the
same mobility workload drives every protocol in the comparison
experiments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Tuple

from repro.mobility.cells import Cell, CellGrid
from repro.mobility.models import MobilityModel
from repro.net.address import NodeId
from repro.runtime.api import Runtime


class HandoffFacade(Protocol):  # pragma: no cover - typing helper
    """What the driver needs from a protocol instance."""

    sim: Runtime

    def handoff(self, mh_id: NodeId, new_ap: NodeId) -> None: ...


class HandoffDriver:
    """Schedules movement for a set of MHs over a cell grid."""

    def __init__(
        self,
        facade: HandoffFacade,
        grid: CellGrid,
        model: MobilityModel,
        rng_name: str = "mobility",
    ):
        self.facade = facade
        self.sim = facade.sim
        self.grid = grid
        self.model = model
        self.rng = self.sim.rng(rng_name)
        self._cell: Dict[NodeId, Cell] = {}
        self._state: Dict[NodeId, Dict] = {}
        self._active: Dict[NodeId, bool] = {}
        #: Re-track generation per MH: a pending move from an earlier
        #: tracking stint (stopped, then re-tracked by an open-world
        #: re-arrival) must not fire into the new stint.
        self._epoch: Dict[NodeId, int] = {}
        self.handoffs_driven = 0
        #: (time, mh, old_ap, new_ap) log of driven handoffs.
        self.log: List[Tuple[float, NodeId, NodeId, NodeId]] = []

    # ------------------------------------------------------------------
    def track(self, mh_id: NodeId, start_ap: NodeId) -> None:
        """Start moving ``mh_id``, currently attached at ``start_ap``."""
        cell = self.grid.cell_of(start_ap)
        if cell is None:
            raise ValueError(f"AP {start_ap!r} is not on the grid")
        self._cell[mh_id] = cell
        self._state[mh_id] = {}
        self._active[mh_id] = True
        self._epoch[mh_id] = self._epoch.get(mh_id, 0) + 1
        self._schedule(mh_id)

    def stop(self, mh_id: NodeId) -> None:
        """Stop moving ``mh_id`` (it stays wherever it is)."""
        self._active[mh_id] = False

    def cell_of(self, mh_id: NodeId) -> Optional[Cell]:
        """The driver's belief of where ``mh_id`` currently is."""
        return self._cell.get(mh_id)

    # ------------------------------------------------------------------
    def _schedule(self, mh_id: NodeId) -> None:
        dwell, nxt = self.model.next_move(
            self.rng, self.grid, self._cell[mh_id], self._state[mh_id]
        )
        self.sim.schedule(dwell, self._move, mh_id, nxt,
                          self._epoch[mh_id])

    def _move(self, mh_id: NodeId, nxt: Cell, epoch: int) -> None:
        if not self._active.get(mh_id) or epoch != self._epoch.get(mh_id):
            return
        cur = self._cell[mh_id]
        if nxt != cur:
            old_ap = self.grid.ap_at(cur)
            new_ap = self.grid.ap_at(nxt)
            self._cell[mh_id] = nxt
            if new_ap != old_ap:
                self.facade.handoff(mh_id, new_ap)
                self.handoffs_driven += 1
                self.log.append((self.sim.now, mh_id, old_ap, new_ap))
        self._schedule(mh_id)
