"""Local-scope-based retransmission (paper §4.2.3).

The paper divides the hierarchy into local scopes and implements reliable
transmission *within each scope* in a best-effort way: "the immediate
neighbor scope, the single logical ring scope, or the multiple
neighboring logical rings scope".

This mixin implements the immediate-neighbor scope for sequence gaps:

* an NE that observes a persistent hole in its MQ (a global sequence it
  should have by now — something later already arrived — but does not)
  asks its **parent** (non-top NE) or **previous ring node** (top NE)
  to re-deliver the missing range (:class:`GapRequest`);
* the neighbor re-delivers what it still buffers and answers
  :class:`GapUnavailable` for anything pruned or never received;
* after ``gap_max_attempts`` unanswered rounds the NE declares the range
  really lost and tombstones it (``Received=False, Waiting=False`` ⇒
  counted delivered), so ordered delivery never wedges.

The same machinery answers requests from children and handed-off MHs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.address import NodeId, tier_of
from repro.core.messages import DeliverDown, GapRequest, GapUnavailable, WirelessDeliver

#: Gap-fill rounds before tombstoning the range as really lost.
GAP_MAX_ATTEMPTS = 3


class GapRecoveryMixin:
    """Sequence-gap detection and local-scope recovery."""

    def _init_gap_recovery(self) -> None:
        # (first missing seq) -> (first observed at, attempts so far)
        self._gap_state: Optional[Tuple[int, float, int]] = None
        self.gaps_requested = 0
        self.gaps_tombstoned = 0
        self.gap_fills_served = 0

    # ------------------------------------------------------------------
    # Detection (called from the periodic maintenance tick).  The tick
    # runs only while this NE has an MQ hole or a standby MMA entry: an
    # MQ insert that jumps ``rear`` by more than one and a standby
    # ``PathReserve`` wake it; the tick, or the fill or tombstone that
    # drains the work, parks it (``_park_if_drained``).  A tombstoned
    # range opens no hole: it answers this NE's own request, below
    # ``rear``.  The 30 ms grid the rounds are counted on survives only
    # because the goldens pin it; nothing in §4.2.3 asks for one.
    # ------------------------------------------------------------------
    def gap_check(self) -> None:
        """Detect persistent MQ holes and drive the recovery rounds."""
        hole = self._first_hole()
        if hole is None:
            self._gap_state = None
        else:
            self._gap_round(hole)

    def _gap_round(self, hole: int) -> None:
        """One tick's worth of recovery for the hole starting at ``hole``."""
        if self._gap_state is None or self._gap_state[0] != hole:
            self._gap_state = (hole, self.now, 0)
            return
        first_seen_at = self._gap_state[1]
        attempts = self._gap_state[2]
        if self.now - first_seen_at < self.cfg.gap_timeout * (attempts + 1):
            return
        hole_end = self._hole_end(hole)
        if attempts >= GAP_MAX_ATTEMPTS:
            self._tombstone_range(hole, hole_end)
            self._gap_state = None
            return
        target = self._gap_target()
        if target is not None:
            self.chan.send(target, GapRequest(self.cfg.gid, hole, hole_end))
            self.gaps_requested += 1
            self.sim.trace.emit(self.now, "gap.request", node=self.id,
                                to=target, from_seq=hole, to_seq=hole_end)
        self._gap_state = (hole, first_seen_at, attempts + 1)

    def _park_if_drained(self) -> None:
        """Park the maintenance tick once it has no work: no MQ hole and
        no standby entry.  Run by the tick and by every MQ fill."""
        if not self.mq.missing and not self.mma.has_standby():
            self._gap_state = None
            self._maint_timer.park()

    def _first_hole(self) -> Optional[int]:
        """First missing seq between front and rear, or None."""
        if not self.mq.missing:
            return None
        for seq in range(self.mq.front + 1, self.mq.rear + 1):
            if not self.mq.has(seq):
                return seq
        return None

    def _hole_end(self, start: int) -> int:
        seq = start
        while seq + 1 <= self.mq.rear and not self.mq.has(seq + 1):
            seq += 1
        return seq

    def _gap_target(self) -> Optional[NodeId]:
        """Immediate-neighbor scope: parent, else previous ring node."""
        if self.view.parent is not None:
            return self.view.parent
        if self.view.previous is not None and self.view.previous != self.id:
            return self.view.previous
        return None

    def _tombstone_range(self, from_seq: int, to_seq: int) -> None:
        for seq in range(from_seq, to_seq + 1):
            if not self.mq.has(seq):
                self.mq.tombstone_lost(seq)
                self.gaps_tombstoned += 1
                self.sim.trace.emit(self.now, "ne.tombstone", node=self.id,
                                    gseq=seq)
        self._park_if_drained()
        self.try_deliver()

    # ------------------------------------------------------------------
    # Serving neighbors' requests
    # ------------------------------------------------------------------
    def handle_gap_request(self, msg: GapRequest) -> None:
        """Re-deliver a buffered range to the requesting neighbor/MH.

        Three cases per sequence number:

        * buffered and received here — re-deliver it;
        * definitely unobtainable here (pruned below ``ValidFront``, or
          tombstoned as really lost) — answer :class:`GapUnavailable`;
        * simply not here *yet* (this NE has the same hole, or the seq is
          beyond its rear) — stay silent; the requester retries later.
        """
        requester = msg.src
        unavailable_from: Optional[int] = None
        wireless = tier_of(requester) == "mh"

        def flush_unavailable(upto: int) -> None:
            nonlocal unavailable_from
            if unavailable_from is not None:
                self.chan.send(requester,
                               GapUnavailable(self.cfg.gid, unavailable_from, upto))
                unavailable_from = None

        for seq in range(msg.from_seq, msg.to_seq + 1):
            bm = self.mq.get(seq)
            if bm is not None and bm.received:
                flush_unavailable(seq - 1)
                cls = WirelessDeliver if wireless else DeliverDown
                self.chan.send(requester, cls(
                    gid=self.cfg.gid,
                    global_seq=bm.global_seq,
                    ordering_node=bm.ordering_node,
                    source=bm.source,
                    local_seq=bm.local_seq,
                    payload=bm.payload,
                    created_at=bm.created_at,
                ))
                self.gap_fills_served += 1
            elif (bm is not None and bm.really_lost) or seq < self.mq.valid_front:
                if unavailable_from is None:
                    unavailable_from = seq
            else:
                # Not here yet either; neither serve nor condemn.
                flush_unavailable(seq - 1)
        flush_unavailable(msg.to_seq)

    def handle_gap_unavailable(self, msg: GapUnavailable) -> None:
        """The neighbor no longer has part of the range: really lost."""
        self._tombstone_range(msg.from_seq, msg.to_seq)
        self._gap_state = None
