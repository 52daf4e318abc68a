"""Message-Ordering and Order-Assignment (paper §4.2.1).

Run only by NEs in the **top logical ring**.  Responsibilities:

* accept raw messages from this node's multicast source into WQ and
  track the contiguous run of not-yet-ordered local sequence numbers
  (``MinLocalSeqNo`` / ``MaxLocalSeqNo``);
* when holding the OrderingToken, stamp that run into the token's WTSNP
  (assigning global sequence numbers) and keep a snapshot pair
  (``NewOrderingToken`` shifting to ``OldOrderingToken``), then pass the
  token to the next ring node over the reliable channel;
* periodically (cycle τ) run **Order-Assignment**: match WQ entries
  against the two retained snapshots, copy matched messages into MQ with
  their global sequence numbers, and hand them to Message-Delivering.

The τ chain parks after every tick: a tick leaves no WQ entry that a
usable snapshot (:meth:`OrderingMixin._usable_snapshots`) covers, and
a tick that finds none does nothing.  Neither a hold (it defers the
snapshot it takes while the token is held) nor WTSNP expiry makes an
entry coverable, nor does an own-source insert (only a later hold of
this node mints its WTSNP entry).  Three mutations do: a ``RingRaw``
insert that a usable snapshot already covers, and the held token
leaving — ``_pass_token`` or a kill in ``_recompute_kill_set`` — which
makes ``new_token`` usable.  Each wakes the chain only if an entry is
now coverable.

A fidelity note on pre-assignment: the paper says the token "pre-assigns"
global numbers and a separate Order-Assignment algorithm "really"
assigns them; both read the same WTSNP data, so the split here is the
same — assignment happens at token-hold time (mutating the token), and
application to MQ happens on the τ timer from snapshots.
"""

from __future__ import annotations

from typing import Optional

from repro.core.datastructures import BufferedMessage, WQEntry
from repro.core.messages import RingRaw, SourceData, TokenPass
from repro.core.token import OrderingToken


class OrderingMixin:
    """Top-ring ordering behaviour, mixed into NetworkEntity."""

    # ------------------------------------------------------------------
    # State (initialized by NetworkEntity.__init__ via _init_ordering)
    # ------------------------------------------------------------------
    def _init_ordering(self) -> None:
        # Two retained token snapshots (paper: New/Old OrderingToken).
        self.new_token: Optional[OrderingToken] = None
        self.old_token: Optional[OrderingToken] = None
        # Contiguously received, not yet ordered run of own-source seqs.
        self.next_unordered_local: int = 0
        # The token currently held (None while it is elsewhere/in flight).
        self.held_token: Optional[OrderingToken] = None
        self._pass_timer = None  # armed while holding
        self.last_token_seen: float = -1.0
        self.last_token_id = None
        self.tokens_held: int = 0
        self.messages_ordered: int = 0
        # Multiple-Token kill set: token ids ruled dead by resolution.
        self.killed_token_ids: set = set()
        # Test-only fault hook: while positive, _pass_token silently
        # drops the token instead of sending it (models token loss with
        # no accompanying topology change, so no recovery signal fires).
        # Mutation tests use it to prove the validation monitors catch a
        # protocol that stops ordering.
        self._test_drop_token_passes: int = 0

    # ------------------------------------------------------------------
    # Source intake
    # ------------------------------------------------------------------
    def handle_source_data(self, msg: SourceData) -> None:
        """A raw message from this node's own multicast source."""
        if not self.view.in_top_ring:
            # Mis-addressed source; NEs outside the top ring do not order.
            return
        entry = WQEntry(
            ordering_node=self.id,
            source=msg.source,
            local_seq=msg.local_seq,
            payload=msg.payload,
            created_at=msg.created_at,
            arrived_at=self.now,
        )
        if not self.wq.insert(entry):
            return  # duplicate
        self.sim.trace.emit(self.now, "wq.insert", node=self.id,
                            local_seq=msg.local_seq)
        self.forward_raw(entry)

    def _max_contiguous_pending(self) -> int:
        """Largest L so own-source local seqs [next_unordered, L] are all
        in WQ; returns next_unordered-1 when none are."""
        stream = self.wq.stream(self.id)
        seq = self.next_unordered_local
        while seq in stream:
            seq += 1
        return seq - 1

    # ------------------------------------------------------------------
    # Token handling
    # ------------------------------------------------------------------
    def handle_token(self, msg: TokenPass) -> None:
        """Receive the OrderingToken: assign, snapshot, schedule the pass."""
        token = msg.token
        now = self.now
        if token.token_id in self.killed_token_ids:
            # Multiple-Token resolution ruled this token dead.
            self.sim.trace.emit(now, "token.destroyed", node=self.id,
                                token_id=token.token_id)
            return
        # Self-detection of the Multiple-Token problem: a token with a
        # different identity arriving while the previous token is still
        # "live" (seen within the runs-well window) means two tokens
        # coexist — e.g. a ring merge raced ahead of the membership
        # protocol's signal.  Quiesce immediately and announce both
        # identities so resolution can kill the lesser lineage *before*
        # it mints conflicting global sequence numbers here.
        if (self.last_token_id is not None
                and token.token_id != self.last_token_id
                and self.last_token_seen >= 0
                and now - self.last_token_seen
                    <= 2.0 * self.expected_token_rotation()):
            self.quiesce_until = max(
                self.quiesce_until,
                now + 2.0 * self.expected_token_rotation(),
            )
            if (self.new_token is not None
                    and self.new_token.token_id == self.last_token_id
                    and self.last_token_id not in self._announced):
                self.announce_token(self.new_token)

        self.last_token_seen = now
        self.last_token_id = token.token_id
        self.tokens_held += 1
        self.held_token = token

        if now < self.quiesce_until:
            # ``quiescing``: Multiple-Token resolution in progress.
            # Announce this token (it may have been in flight when the
            # signal arrived), but neither assign nor snapshot — a
            # doomed token must not mint global sequences that the
            # surviving one will mint again.
            if token.token_id not in self._announced:
                self.announce_token(token)
            if self._pass_timer is None:
                self._pass_timer = self.timer(self._pass_token)
            self._pass_timer.start(self.cfg.token_hold_time)
            return

        # Assign global seqs to the contiguous pending run of own messages.
        max_contig = self._max_contiguous_pending()
        if max_contig >= self.next_unordered_local:
            token.assign(
                source=self._source_of(),
                ordering_node=self.id,
                min_local=self.next_unordered_local,
                max_local=max_contig,
                ttl_hops=self._wtsnp_ttl(),
            )
            self.next_unordered_local = max_contig + 1

        # Keep at most two versions of the most recently acquired token.
        self.old_token = self.new_token
        self.new_token = token.snapshot()

        token.age()
        self.sim.trace.emit(now, "token.hold", node=self.id,
                            next_gseq=token.next_global_seq,
                            token_id=token.token_id)
        # Pass after the processing/hold time.
        if self._pass_timer is None:
            self._pass_timer = self.timer(self._pass_token)
        self._pass_timer.start(self.cfg.token_hold_time)

    def _pass_token(self) -> None:
        token = self.held_token
        if token is None:
            return
        self.held_token = None
        self._wake_tau_if_orderable()
        if self._test_drop_token_passes > 0:
            self._test_drop_token_passes -= 1
            self.sim.trace.emit(self.now, "test.token_dropped", node=self.id,
                                token_id=token.token_id)
            return
        nxt = self.view.next
        if nxt is None or nxt == self.id:
            # Singleton ring: immediately re-hold after a hold cycle.
            self.sim.schedule(self.cfg.token_hold_time,
                              self.handle_token, TokenPass(token))
            return
        self.chan.send(nxt, TokenPass(token))
        self.sim.trace.emit(self.now, "token.pass", node=self.id, to=nxt,
                            token_id=token.token_id)

    def _wtsnp_ttl(self) -> int:
        # At least two full rotations plus slack, so every node's retained
        # snapshots cover every entry (see token.py module docs).
        ring_size = max(2, self.ring_size_hint)
        return max(self.cfg.wtsnp_ttl_hops, 3 * ring_size)

    # ------------------------------------------------------------------
    # Order-Assignment (τ-periodic)
    # ------------------------------------------------------------------
    def _usable_snapshots(self) -> tuple:
        """The retained snapshots Order-Assignment applies now, newest
        first: ``new_token`` and ``old_token``, but not ``new_token``
        while this node holds the token.

        Stability guard: while this node still holds the token, the
        mints of the current hold exist only here and in the held
        token itself.  Applying them now and then crashing re-mints
        those global sequence numbers after Token-Regeneration (the
        best surviving snapshot predates them) — an application-
        visible agreement violation found by the conformance fuzzer.
        Deferring the newest snapshot until the token has moved on
        guarantees at least one other node's retained snapshot covers
        every gseq this node ever applies.
        """
        old = self.old_token
        if self.held_token is not None or self.new_token is None:
            return () if old is None else (old,)
        return (self.new_token,) if old is None else (self.new_token, old)

    def _wake_tau_if_orderable(self, entry: Optional[WQEntry] = None) -> None:
        """Wake the parked τ chain if ``entry`` (default: any entry in
        WQ) is coverable."""
        streams = (self.wq.streams() if entry is None
                   else ((entry.ordering_node, (entry.local_seq,)),))
        snapshots = None
        for ordering_node, seqs in streams:
            for local_seq in seqs:
                if snapshots is None:       # WQ holds an entry
                    snapshots = self._usable_snapshots()
                for snapshot in snapshots:
                    if snapshot.lookup(ordering_node, local_seq) is not None:
                        self._tau_timer.wake()
                        return

    def order_assignment(self) -> int:
        """Copy orderable WQ entries into MQ; returns how many moved."""
        snapshots = self._usable_snapshots()
        if not snapshots:
            return 0
        moved = 0
        for ordering_node, stream in list(self.wq.streams()):
            if not stream:
                continue
            for local_seq in sorted(stream):
                for snapshot in snapshots:
                    covering = snapshot.lookup(ordering_node, local_seq)
                    if covering is not None:
                        break
                else:
                    continue
                entry = stream[local_seq]
                gseq = covering.global_for(local_seq)
                bm = BufferedMessage(
                    global_seq=gseq,
                    source=entry.source,
                    local_seq=local_seq,
                    ordering_node=ordering_node,
                    payload=entry.payload,
                    created_at=entry.created_at,
                    ordered_at=self.now,
                )
                del stream[local_seq]
                rear = self.mq.rear
                if self.mq.insert(bm):
                    if gseq > rear + 1:
                        self._maint_timer.wake()    # a hole opened
                    elif gseq <= rear:
                        self._park_if_drained()     # a hole filled
                    moved += 1
                    self.messages_ordered += 1
                    self.sim.trace.emit(
                        self.now, "ordered", node=self.id, gseq=gseq,
                        ordering_node=ordering_node, local_seq=local_seq,
                        created_at=entry.created_at,
                    )
        if moved:
            self.try_deliver()
        return moved

    # ------------------------------------------------------------------
    # Hooks the composing class provides
    # ------------------------------------------------------------------
    def _source_of(self) -> str:
        """Id of the multicast source corresponding to this node."""
        return getattr(self, "source_id", None) or self.id
