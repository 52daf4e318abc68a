"""Token-Regeneration and Multiple-Token resolution (paper §4.2.1).

**Token-Loss.** The membership protocol cannot know the multicast
protocol's internals, so on topology maintenance it simply signals
*Token-Loss might have happened* to the multicast layer.  Each top-ring
node then runs the Token-Regeneration algorithm exactly as the paper
specifies:

* a node whose Message-Ordering "runs well" (it saw the token recently)
  ignores the signal;
* otherwise it originates a :class:`TokenRegen` message encapsulating its
  ``NewOrderingToken`` snapshot and sends it along the next link;
* each traversed node: destroys the message if its own ordering runs
  well; re-encapsulates its own snapshot if that snapshot's
  ``NextGlobalSeqNo`` is *greater* than the message's; otherwise it
  becomes the restart point — it regenerates a live OrderingToken from
  the encapsulated snapshot (with a fresh ``token_id`` epoch) and resumes
  Message-Ordering.

**Multiple-Token.** When top rings merge, the membership layer signals
*Multiple-Token*.  Every node holding a live token advertises it with a
ring-circulating :class:`TokenAnnounce`; all nodes deterministically rank
announcements by ``(NextGlobalSeqNo, token_id)`` and record every token
except the maximum in a **kill set** — a token whose id is in the kill
set is destroyed at its next hop (see ``OrderingMixin.handle_token``), so
exactly one token survives.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.messages import TokenAnnounce, TokenPass, TokenRegen
from repro.core.token import OrderingToken

#: A node considers its Message-Ordering "running well" when it saw the
#: token within this many expected rotation times.
RUNS_WELL_ROTATIONS = 2.0


class TokenRecoveryMixin:
    """Top-ring token fault handling, mixed into NetworkEntity."""

    def _init_token_recovery(self) -> None:
        self.regen_epoch = 0
        self.tokens_regenerated = 0
        self._announced: Dict[Tuple[int, str], int] = {}
        self.announce_round = 0
        #: While now < quiesce_until, token holders pass without assigning
        #: or snapshotting (Multiple-Token resolution in progress): a
        #: doomed token must not mint conflicting global sequences during
        #: the window in which the kill set is still propagating.
        self.quiesce_until: float = -1.0

    # ------------------------------------------------------------------
    # "Runs well" predicate
    # ------------------------------------------------------------------
    def ordering_runs_well(self) -> bool:
        """Token seen recently relative to the expected rotation time."""
        if self.held_token is not None:
            return True
        if self.last_token_seen < 0:
            return False
        expected_rotation = self.expected_token_rotation()
        return (self.now - self.last_token_seen) <= RUNS_WELL_ROTATIONS * expected_rotation

    def expected_token_rotation(self) -> float:
        """Rough T_order estimate from ring size, hold time, and RTT."""
        r = max(2, self.ring_size_hint)
        per_hop = self.cfg.token_hold_time + self.cfg.rto / 4.0
        return r * per_hop

    # ------------------------------------------------------------------
    # Token-Loss signal (from the membership protocol)
    # ------------------------------------------------------------------
    def signal_token_loss(self) -> None:
        """Paper: membership sends a Token-Loss message on maintenance."""
        if not self.view.in_top_ring:
            return
        if self.ordering_runs_well():
            return
        snapshot = self._best_snapshot()
        nxt = self.view.next
        if nxt is None or nxt == self.id:
            # Singleton ring: restart immediately.
            self._restart_with(snapshot)
            return
        self.chan.send(nxt, TokenRegen(self.cfg.gid, self.id, snapshot))
        self.sim.trace.emit(self.now, "token.regen_originated", node=self.id,
                            next_gseq=snapshot.next_global_seq)

    def handle_token_regen(self, msg: TokenRegen) -> None:
        """One traversal step of the Token-Regeneration message."""
        if not self.view.in_top_ring:
            return
        if self.ordering_runs_well():
            # Destroy the message: a live token exists after all.
            self.sim.trace.emit(self.now, "token.regen_destroyed", node=self.id)
            return
        mine = self._best_snapshot()
        if mine.next_global_seq > msg.snapshot.next_global_seq:
            # Our knowledge is fresher: re-encapsulate and continue.
            if msg.origin == self.id or self.view.next in (None, self.id):
                self._restart_with(mine)
                return
            self.chan.send(self.view.next,
                           TokenRegen(self.cfg.gid, msg.origin, mine))
            return
        # Current node is the restart point with the encapsulated snapshot.
        self._restart_with(msg.snapshot)

    def _best_snapshot(self) -> OrderingToken:
        if self.new_token is not None:
            return self.new_token.snapshot()
        return OrderingToken(gid=self.cfg.gid, token_id=(0, self.id))

    def _restart_with(self, snapshot: OrderingToken) -> None:
        """Regenerate a live token from a snapshot and resume ordering.

        The new token shares the snapshot's immutable WTSNP entries and
        its ``hops``, so every entry keeps its absolute expiry hop."""
        self.regen_epoch += 1
        self.tokens_regenerated += 1
        token = snapshot.snapshot()
        token.token_id = (self.regen_epoch, self.id)
        self.sim.trace.emit(self.now, "token.regenerated", node=self.id,
                            next_gseq=token.next_global_seq,
                            token_id=token.token_id)
        self.handle_token(TokenPass(token))

    # ------------------------------------------------------------------
    # Multiple-Token signal (from the membership protocol, on ring merge)
    # ------------------------------------------------------------------
    @property
    def quiescing(self) -> bool:
        """True while Multiple-Token resolution suspends assignment."""
        return self.now < self.quiesce_until

    def signal_multiple_token(self) -> None:
        """Advertise any held token so the merged ring can pick one."""
        if not self.view.in_top_ring:
            return
        self.announce_round += 1
        self._announced.clear()
        # Suspend assignment long enough for every announcement to make a
        # full circle and the kill set to settle everywhere.
        self.quiesce_until = self.now + 2.0 * self.expected_token_rotation()
        if self.held_token is None:
            return
        self.announce_token(self.held_token)

    def announce_token(self, token: OrderingToken) -> None:
        """Circulate a TokenAnnounce for a live token (resolution input)."""
        self._announced[token.token_id] = token.next_global_seq
        self._recompute_kill_set()
        nxt = self.view.next
        if nxt is None or nxt == self.id:
            return
        self.chan.send(nxt, TokenAnnounce(
            self.cfg.gid, self.id, token.token_id,
            token.next_global_seq, hops_left=2 * max(2, self.ring_size_hint),
        ))

    def _recompute_kill_set(self) -> None:
        """Rank known tokens; everything but the maximum dies."""
        if not self._announced:
            return
        winner = max(self._announced.items(), key=lambda kv: (kv[1], kv[0]))
        for tid in self._announced:
            if tid != winner[0]:
                self.killed_token_ids.add(tid)
        if (self.held_token is not None
                and self.held_token.token_id in self.killed_token_ids):
            self.sim.trace.emit(self.now, "token.destroyed", node=self.id,
                                token_id=self.held_token.token_id)
            self.held_token = None
            self._wake_tau_if_orderable()
            if self._pass_timer is not None:
                self._pass_timer.stop()

    def handle_token_announce(self, msg: TokenAnnounce) -> None:
        """Collect announcements; destroy every token but the maximum."""
        if not self.view.in_top_ring:
            return
        known = self._announced.get(msg.token_id)
        if known is None or msg.next_global_seq > known:
            self._announced[msg.token_id] = msg.next_global_seq
        self._recompute_kill_set()
        if msg.hops_left > 0 and self.view.next not in (None, self.id, msg.origin):
            self.chan.send(self.view.next, TokenAnnounce(
                msg.gid, msg.origin, msg.token_id,
                msg.next_global_seq, msg.hops_left - 1,
            ))
