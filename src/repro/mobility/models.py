"""Movement models: when and where a mobile host moves next.

A model is a strategy object: given (rng, grid, current cell, state) it
returns the dwell time in the current cell and the next cell.  Models
keep any per-MH state in an opaque dict the driver threads through, so a
single model instance serves every MH.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.mobility.cells import Cell, CellGrid

if TYPE_CHECKING:
    import numpy as np


class MobilityModel:
    """Base strategy; subclasses override :meth:`next_move`."""

    def next_move(
        self,
        rng: np.random.Generator,
        grid: CellGrid,
        cell: Cell,
        state: Dict,
    ) -> Tuple[float, Cell]:
        """Return (dwell_ms, next_cell).  ``next_cell == cell`` = stay."""
        raise NotImplementedError


class RandomWalk(MobilityModel):
    """Memoryless walk: exponential dwell, uniformly random neighbor.

    ``mean_dwell_ms`` controls the handoff rate: an MH hands off on
    average every ``mean_dwell_ms`` milliseconds (the paper's "frequent
    handoff" regime is small dwell).  ``stay_prob`` adds laziness —
    with that probability the MH re-draws a dwell in place.
    """

    def __init__(self, mean_dwell_ms: float = 2000.0, stay_prob: float = 0.0):
        if mean_dwell_ms <= 0:
            raise ValueError("mean_dwell_ms must be positive")
        if not 0.0 <= stay_prob < 1.0:
            raise ValueError("stay_prob must be in [0, 1)")
        self.mean_dwell_ms = mean_dwell_ms
        self.stay_prob = stay_prob

    def next_move(self, rng, grid, cell, state):
        dwell = float(rng.exponential(self.mean_dwell_ms))
        if self.stay_prob and rng.random() < self.stay_prob:
            return dwell, cell
        options = grid.neighbors(cell)
        if not options:
            return dwell, cell
        return dwell, options[int(rng.integers(len(options)))]


class DirectionalWalk(MobilityModel):
    """A walker with inertia: keeps its heading with ``persistence``.

    Models commuter-like motion (vehicle along a road): consecutive
    handoffs tend to hit *new* APs rather than bouncing between two,
    which is the regime where neighbor path pre-reservation pays off
    most (the reserved AP really is the next one used).
    """

    def __init__(self, mean_dwell_ms: float = 2000.0, persistence: float = 0.8):
        if mean_dwell_ms <= 0:
            raise ValueError("mean_dwell_ms must be positive")
        if not 0.0 <= persistence <= 1.0:
            raise ValueError("persistence must be in [0, 1]")
        self.mean_dwell_ms = mean_dwell_ms
        self.persistence = persistence

    def next_move(self, rng, grid, cell, state):
        dwell = float(rng.exponential(self.mean_dwell_ms))
        options = grid.neighbors(cell)
        if not options:
            return dwell, cell
        heading: Optional[Tuple[int, int]] = state.get("heading")
        if heading is not None and rng.random() < self.persistence:
            target = (cell[0] + heading[0], cell[1] + heading[1])
            if target in options:
                return dwell, target
        nxt = options[int(rng.integers(len(options)))]
        state["heading"] = (nxt[0] - cell[0], nxt[1] - cell[1])
        return dwell, nxt
