"""Multicast Mobility Agents and smooth-handoff path reservation (§3).

The paper places an MMA "in each micromobility domain" — in this
implementation every AG runs one.  Like an MRP, the MMA keeps a list of
entries searched for each downlink packet; unlike an MRP the entries are
**group-oriented** and a group may have **multiple** entries (one per AP
currently receiving or pre-reserved), which is what enables
multicast-based smooth handoff:

* when an AP that is not receiving the group needs it (an MH handed off
  to it), it builds a multicast path toward one of its **candidate AGs**
  (:class:`~repro.core.messages.PathReserve`), *and at the same time
  notifies its nearby APs* to reserve paths too
  (:class:`~repro.core.messages.NeighborNotify`);
* a reservation adds the AP to the AG's MMA table — operationally, the
  AG registers the AP as a delivery child from its current front — so
  messages are already flowing when the next MH arrives ("in most cases,
  when an MH handoffs, it can immediately receive multicast messages");
* reservations with no attached group member expire after
  ``cfg.reservation_ttl`` to bound the extra delivery fan-out.

The :class:`MMATable` itself lives at the AG; the reservation *initiation*
logic lives at the AP (see ``NetworkEntity.ap_need_path`` /
``handle_neighbor_notify``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.address import NodeId


@dataclass
class MMAEntry:
    """One (group, AP) downlink entry at an AG's MMA."""

    gid: str
    ap: NodeId
    reserved_at: float
    #: True while the entry exists only as a smooth-handoff reservation
    #: (no known attached member behind it yet).
    standby: bool = True
    refreshed_at: float = 0.0


class MMATable:
    """The per-AG table of group-oriented downlink entries."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[str, NodeId], MMAEntry] = {}
        self.reservations = 0
        self.activations = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    def reserve(self, gid: str, ap: NodeId, now: float) -> MMAEntry:
        """Add or refresh a standby entry for (gid, ap)."""
        key = (gid, ap)
        entry = self._entries.get(key)
        if entry is None:
            entry = MMAEntry(gid=gid, ap=ap, reserved_at=now, refreshed_at=now)
            self._entries[key] = entry
            self.reservations += 1
        else:
            entry.refreshed_at = now
        return entry

    def activate(self, gid: str, ap: NodeId, now: float) -> MMAEntry:
        """Mark the entry active (an MH is attached behind this AP)."""
        entry = self.reserve(gid, ap, now)
        if entry.standby:
            entry.standby = False
            self.activations += 1
        entry.refreshed_at = now
        return entry

    def deactivate(self, gid: str, ap: NodeId, now: float) -> None:
        """Demote an entry to standby (last member left the AP)."""
        entry = self._entries.get((gid, ap))
        if entry is not None:
            entry.standby = True
            entry.refreshed_at = now

    def remove(self, gid: str, ap: NodeId) -> None:
        """Drop the entry entirely."""
        self._entries.pop((gid, ap), None)

    # ------------------------------------------------------------------
    def lookup(self, gid: str) -> List[MMAEntry]:
        """All entries for a group — the per-downlink-packet search."""
        return [e for (g, _), e in self._entries.items() if g == gid]

    def has(self, gid: str, ap: NodeId) -> bool:
        """Whether (gid, ap) has an entry (standby or active)."""
        return (gid, ap) in self._entries

    def has_standby(self) -> bool:
        """Whether any entry is a standby reservation (could expire)."""
        return any(e.standby for e in self._entries.values())

    def expire_standby(self, now: float, ttl: float) -> List[MMAEntry]:
        """Drop standby entries idle longer than ``ttl``; returns them."""
        dead = [
            e for e in self._entries.values()
            if e.standby and now - e.refreshed_at > ttl
        ]
        for e in dead:
            del self._entries[(e.gid, e.ap)]
            self.expirations += 1
        return dead

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MMATable entries={len(self._entries)}>"
