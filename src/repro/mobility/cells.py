"""Cell geometry: a rectangular grid of AP coverage cells."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.address import NodeId

Cell = Tuple[int, int]


class CellGrid:
    """A ``cols × rows`` grid of cells, each served by exactly one AP.

    Adjacency is 4-connected (N/S/E/W); the grid does not wrap.  The AP
    assignment is given at construction (usually the APs of a built
    hierarchy in row-major order), and the inverse mapping supports
    "which cell am I in" queries for handoff bookkeeping.
    """

    def __init__(self, cols: int, rows: int, aps: Sequence[NodeId]):
        if cols < 1 or rows < 1:
            raise ValueError("grid must be at least 1x1")
        if len(aps) != cols * rows:
            raise ValueError(
                f"need exactly {cols * rows} APs for a {cols}x{rows} grid, "
                f"got {len(aps)}"
            )
        self.cols = cols
        self.rows = rows
        self._ap_of: Dict[Cell, NodeId] = {}
        self._cell_of: Dict[NodeId, Cell] = {}
        i = 0
        for y in range(rows):
            for x in range(cols):
                ap = aps[i]
                self._ap_of[(x, y)] = ap
                self._cell_of[ap] = (x, y)
                i += 1

    # ------------------------------------------------------------------
    @classmethod
    def square_for(cls, aps: Sequence[NodeId]) -> "CellGrid":
        """Smallest near-square grid holding all given APs.

        Pads by reusing the last AP for any leftover cells (keeps every
        cell covered while accepting non-square AP counts).
        """
        n = len(aps)
        if n == 0:
            raise ValueError("need at least one AP")
        cols = int(n ** 0.5) or 1
        rows = (n + cols - 1) // cols
        padded = list(aps) + [aps[-1]] * (cols * rows - n)
        return cls(cols, rows, padded)

    # ------------------------------------------------------------------
    def ap_at(self, cell: Cell) -> NodeId:
        """The AP serving ``cell``."""
        return self._ap_of[cell]

    def cell_of(self, ap: NodeId) -> Optional[Cell]:
        """The cell an AP serves (None for unknown APs)."""
        return self._cell_of.get(ap)

    def neighbors(self, cell: Cell) -> List[Cell]:
        """4-connected neighbor cells inside the grid."""
        x, y = cell
        out = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < self.cols and 0 <= ny < self.rows:
                out.append((nx, ny))
        return out

    @property
    def cells(self) -> List[Cell]:
        """All cells in row-major order."""
        return [(x, y) for y in range(self.rows) for x in range(self.cols)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CellGrid {self.cols}x{self.rows}>"
