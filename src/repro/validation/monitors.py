"""The protocol-invariant monitor family.

Each monitor checks one family of claims the paper makes about RingNet,
online, from :class:`~repro.sim.trace.TraceRecord` streams:

* :class:`TokenMonitor` — **token uniqueness and liveness**: at most one
  OrderingToken lineage mints any global sequence number (checked at the
  ``ordered`` records every top-ring NE emits), a lineage's
  ``NextGlobalSeqNo`` never regresses, a destroyed token never
  circulates again, and — when a liveness window is configured — the
  token keeps rotating until the end of the run.
* :class:`MembershipMonitor` — **membership view consistency**: an MH
  only receives application deliveries while it is a member, and at the
  end of a run the per-AP registration tables (each NE's WT) agree with
  the set of member MHs — every member is registered at exactly one
  live AP, modulo in-flight handoffs and crashed attachment points.
* :class:`HandoffMonitor` — **handoff atomicity**: across a cell
  switch advertising ``MaxDeliveredSeqNo = F``, delivery resumes at
  exactly ``F + 1`` (no silent gap) and nothing at or below ``F`` is
  delivered again (no duplicate).
* :class:`BoundsMonitor` — **bounded retransmission state**: every
  reliable channel's per-peer unacked-segment population stays within
  the configuration-derived ceiling — the delivery window, plus the MQ
  retention a gap-request catch-up may replay unwindowed, plus a
  control-traffic allowance — and WQ/MQ occupancy respects any
  configured capacity.  The claim is that channel state is bounded by
  *configuration*, never by run length or group size.
* :class:`RecoveryMonitor` — **recovery after a fault**: after an NE
  crash and after a partition heals (``fault.crash`` / ``fault.heal``
  records from :mod:`repro.faults`) the ordering token resumes
  rotating and application deliveries resume within a recovery window
  (for members with a live attachment point); every scheduled heal
  actually happened, and memberships initiated before the last heal
  reach confirmation instead of staying wedged.

All monitors are pure observers (see :mod:`repro.validation.monitor`):
they never mutate protocol state, so checked and unchecked runs are
byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.sim.trace import Subscriber, TraceRecord
from repro.validation.monitor import Monitor

#: Default recovery window after a crash or a heal before recovery checks fire.
DEFAULT_RECOVERY_WINDOW_MS = 3_000.0

#: Default settle window: state inconsistencies younger than this at the
#: end of a run are treated as in-flight, not violations.
DEFAULT_SETTLE_MS = 500.0

#: Default slack above the delivery window for control traffic
#: (token passes, gap requests, membership relays) on one channel.
DEFAULT_PER_PEER_SLACK = 64

#: Floor for the derived token liveness window: crash recovery needs
#: several membership-maintenance signal rounds before regeneration.
MIN_LIVENESS_WINDOW_MS = 1_500.0


def _live_ne(net: Any, node: Any) -> bool:
    """Is ``node`` an NE of ``net`` that has not crashed?"""
    ne = getattr(net, "nes", {}).get(node)
    return ne is not None and getattr(ne, "alive", True)


def derived_liveness_window(net: Any) -> Optional[float]:
    """A safe token-liveness window from the net's actual top ring."""
    top = getattr(net, "top_ring_nes", None)
    if top is None:
        return None
    nes = top()
    if not nes:
        return None
    rotation = max(ne.expected_token_rotation() for ne in nes)
    return max(MIN_LIVENESS_WINDOW_MS, 25.0 * rotation)


class TokenMonitor(Monitor):
    """Token uniqueness & liveness (paper §4.2.1).

    Parameters
    ----------
    liveness_window_ms:
        :meth:`finish` requires the last ``token.hold`` to fall within
        this many ms of the end of the run (given any hold was ever
        seen).  Default None derives a window from the net's ring
        geometry when a net is available, and skips the liveness check
        otherwise (e.g. offline replay of a truncated trace).
    """

    name = "token"

    def __init__(self, trace=None, liveness_window_ms: Optional[float] = None):
        self.liveness_window_ms = liveness_window_ms
        self.holds = 0
        self.last_hold_time: float = -1.0
        self._next_gseq_of: Dict[Any, int] = {}
        self._destroyed: Set[Any] = set()
        self._identity_of_gseq: Dict[int, Tuple[Any, int]] = {}
        super().__init__(trace)

    def handlers(self) -> Dict[Optional[str], Subscriber]:
        return {
            "token.hold": self._on_hold,
            "token.destroyed": self._on_destroyed,
            "ordered": self._on_ordered,
        }

    # ------------------------------------------------------------------
    def _on_hold(self, rec: TraceRecord) -> None:
        self.holds += 1
        self.last_hold_time = rec.time
        tid = rec.get("token_id")
        if tid is None:
            return
        if tid in self._destroyed:
            self.violation(
                f"destroyed token {tid} held again at {rec['node']} "
                f"(t={rec.time:.1f})"
            )
        g = rec["next_gseq"]
        last = self._next_gseq_of.get(tid)
        if last is not None and g < last:
            self.violation(
                f"token {tid} NextGlobalSeqNo regressed {last} -> {g} "
                f"at {rec['node']} (t={rec.time:.1f})"
            )
        self._next_gseq_of[tid] = g

    def _on_destroyed(self, rec: TraceRecord) -> None:
        tid = rec.get("token_id")
        if tid is not None:
            self._destroyed.add(tid)

    def _on_ordered(self, rec: TraceRecord) -> None:
        # Every top-ring NE emits `ordered` for every message it moves
        # into its MQ; two live tokens minting the same gseq for
        # different messages surface here before any MH delivers.
        gseq = rec["gseq"]
        ident = (rec["ordering_node"], rec["local_seq"])
        known = self._identity_of_gseq.get(gseq)
        if known is None:
            self._identity_of_gseq[gseq] = ident
        elif known != ident:
            self.violation(
                f"uniqueness: gseq {gseq} minted for {known} and for "
                f"{ident} (seen at {rec['node']}, t={rec.time:.1f})"
            )

    # ------------------------------------------------------------------
    def finish(self, net: Any = None, end_time: Optional[float] = None) -> None:
        window = self.liveness_window_ms
        if window is None and net is not None:
            window = derived_liveness_window(net)
        if window is not None and end_time is not None and self.holds:
            if end_time - self.last_hold_time > window:
                self.violation(
                    f"liveness: no token.hold in the last "
                    f"{end_time - self.last_hold_time:.0f} ms of the run "
                    f"(window {window:.0f} ms, "
                    f"last hold t={self.last_hold_time:.1f})"
                )

    def report(self) -> Dict[str, Any]:
        return {
            "monitor": self.name,
            "holds": self.holds,
            "lineages": len(self._next_gseq_of),
            "destroyed": len(self._destroyed),
            "distinct_gseqs": len(self._identity_of_gseq),
            "violations": self.violation_count,
        }


class MembershipMonitor(Monitor):
    """Membership view consistency across NEs."""

    name = "membership"

    def __init__(self, trace=None, settle_ms: float = DEFAULT_SETTLE_MS):
        self.settle_ms = settle_ms
        #: mh -> "joined" | "member" | "left"
        self._status: Dict[Any, str] = {}
        self._regs: Dict[Any, Set[Any]] = {}
        self._last_event: Dict[Any, float] = {}
        self._dead_nodes: Set[Any] = set()
        self._last_time: float = 0.0
        super().__init__(trace)

    def handlers(self) -> Dict[Optional[str], Subscriber]:
        return {
            "mh.join": self._on_join,
            "mh.member": self._on_member,
            "mh.leave": self._on_leave,
            "mh.handoff": self._on_handoff,
            "mh.deliver": self._on_deliver,
            "ap.register": self._on_register,
            "ap.detach": self._on_detach,
            "fault.crash": self._on_crash,
        }

    # ------------------------------------------------------------------
    def _touch(self, mh: Any, t: float) -> None:
        self._last_event[mh] = t
        self._last_time = max(self._last_time, t)

    def _on_join(self, rec: TraceRecord) -> None:
        self._status[rec["mh"]] = "joined"
        self._touch(rec["mh"], rec.time)

    def _on_member(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        if self._status.get(mh) not in ("joined", "member"):
            self.violation(
                f"{mh} confirmed as member without a preceding join "
                f"(t={rec.time:.1f})"
            )
        self._status[mh] = "member"
        self._touch(mh, rec.time)

    def _on_leave(self, rec: TraceRecord) -> None:
        self._status[rec["mh"]] = "left"
        self._touch(rec["mh"], rec.time)

    def _on_handoff(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        # A handoff by a non-member registers with joining=True — the
        # paper's re-entry path — so it arms membership like a join.
        if self._status.get(mh) != "member":
            self._status[mh] = "joined"
        self._touch(mh, rec.time)

    def _on_deliver(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        status = self._status.get(mh)
        if status == "left":
            self.violation(
                f"{mh} received gseq {rec['gseq']} after leaving the "
                f"group (t={rec.time:.1f})"
            )
        elif status is None:
            self.violation(
                f"{mh} received gseq {rec['gseq']} without ever joining "
                f"(t={rec.time:.1f})"
            )

    def _on_register(self, rec: TraceRecord) -> None:
        self._regs.setdefault(rec["mh"], set()).add(rec["node"])
        self._touch(rec["mh"], rec.time)

    def _on_detach(self, rec: TraceRecord) -> None:
        self._regs.setdefault(rec["mh"], set()).discard(rec["node"])
        self._touch(rec["mh"], rec.time)

    def _on_crash(self, rec: TraceRecord) -> None:
        self._dead_nodes.add(rec["node"])

    # ------------------------------------------------------------------
    def _settled(self, mh: Any, end: float) -> bool:
        """True when the MH's state has had time to converge."""
        return end - self._last_event.get(mh, end) >= self.settle_ms

    def finish(self, net: Any = None, end_time: Optional[float] = None) -> None:
        end = self._last_time if end_time is None else end_time
        if net is None:
            # Event-only view (offline replay): per-MH registration sets.
            for mh, status in self._status.items():
                if status not in ("joined", "member"):
                    continue
                if not self._settled(mh, end):
                    continue
                live = self._regs.get(mh, set()) - self._dead_nodes
                if len(live) > 1:
                    self.violation(
                        f"member {mh} registered at {len(live)} live APs "
                        f"at end of trace: {sorted(map(str, live))}"
                    )
            return

        # Authoritative state view: walk every NE's working table.
        nes = getattr(net, "nes", None)
        mobile_hosts = getattr(net, "mobile_hosts", {})
        if nes is None or not mobile_hosts:
            return
        reg_at: Dict[Any, List[Any]] = {}
        for ne in nes.values():
            if not getattr(ne, "alive", True):
                continue
            wt = getattr(ne, "wt", None)
            if wt is not None:
                children = wt.children
            else:
                # Baselines without a working table keep a plain member
                # set (e.g. the unordered NE, sequencer APs).
                children = getattr(ne, "members", ())
            for child in children:
                if child in mobile_hosts:
                    reg_at.setdefault(child, []).append(ne.id)
        for mh_id, mh in mobile_hosts.items():
            if not getattr(mh, "is_member", False):
                continue
            if not self._settled(mh_id, end):
                continue
            aps = reg_at.get(mh_id, [])
            if len(aps) > 1:
                self.violation(
                    f"member {mh_id} registered at {len(aps)} APs at end "
                    f"of run: {sorted(map(str, aps))}"
                )
            elif not aps:
                # Only an inconsistency when the MH's attachment point is
                # still alive — members stranded behind a crashed AP are
                # a liveness problem (RecoveryMonitor's beat), not a
                # view inconsistency.
                ap = getattr(mh, "ap", None)
                if _live_ne(net, ap) and ap not in self._dead_nodes:
                    self.violation(
                        f"member {mh_id} attached to live AP {ap} but "
                        f"registered nowhere at end of run"
                    )

    def report(self) -> Dict[str, Any]:
        states = {"joined": 0, "member": 0, "left": 0}
        for s in self._status.values():
            states[s] = states.get(s, 0) + 1
        return {
            "monitor": self.name,
            "hosts_seen": len(self._status),
            **states,
            "violations": self.violation_count,
        }


class HandoffMonitor(Monitor):
    """Handoff atomicity: no delivery gap or duplicate across a switch."""

    name = "handoff"

    def __init__(self, trace=None):
        self.handoffs = 0
        #: mh -> max gseq delivered/tombstoned so far (membership span).
        self._front: Dict[Any, int] = {}
        #: mh -> MaxDeliveredSeqNo advertised by an unresolved handoff.
        self._pending: Dict[Any, int] = {}
        #: MHs that emitted mh.member (RingNet endpoints): only those
        #: get the strict duplicate check, since baselines reuse the
        #: gseq field for per-source sequence numbers.
        self._span_known: Set[Any] = set()
        super().__init__(trace)

    def handlers(self) -> Dict[Optional[str], Subscriber]:
        return {
            "mh.handoff": self._on_handoff,
            "mh.member": self._on_member,
            "mh.deliver": self._on_deliver,
            "mh.tombstone": self._on_tombstone,
        }

    # ------------------------------------------------------------------
    def _on_member(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        # A (re)join starts a new span at base+1; forget handoff state.
        self._front[mh] = rec["base"]
        self._pending.pop(mh, None)
        self._span_known.add(mh)

    def _on_handoff(self, rec: TraceRecord) -> None:
        self.handoffs += 1
        mh = rec["mh"]
        front = rec.get("front")
        if front is None or front < 0:
            # Joining handoff or a baseline without resume-point
            # semantics: atomicity is unverifiable, skip this switch.
            self._pending.pop(mh, None)
            return
        self._pending[mh] = front

    def _advance(self, rec: TraceRecord, kind: str) -> None:
        mh, gseq = rec["mh"], rec["gseq"]
        pending = self._pending.pop(mh, None)
        if pending is not None:
            if gseq <= pending:
                self.violation(
                    f"duplicate across handoff: {mh} advertised front "
                    f"{pending} but then {kind}ed gseq {gseq} again "
                    f"(t={rec.time:.1f})"
                )
            elif gseq > pending + 1:
                self.violation(
                    f"gap across handoff: {mh} advertised front {pending} "
                    f"but resumed at gseq {gseq}, skipping "
                    f"{pending + 1}..{gseq - 1} (t={rec.time:.1f})"
                )
        if mh in self._span_known and kind == "deliver":
            last = self._front.get(mh)
            if last is not None and gseq <= last:
                self.violation(
                    f"duplicate delivery: {mh} saw gseq {gseq} again "
                    f"after reaching {last} (t={rec.time:.1f})"
                )
        self._front[mh] = max(self._front.get(mh, gseq - 1), gseq)

    def _on_deliver(self, rec: TraceRecord) -> None:
        self._advance(rec, "deliver")

    def _on_tombstone(self, rec: TraceRecord) -> None:
        self._advance(rec, "tombstone")

    def report(self) -> Dict[str, Any]:
        return {
            "monitor": self.name,
            "handoffs": self.handoffs,
            "unresolved": len(self._pending),
            "violations": self.violation_count,
        }


class BoundsMonitor(Monitor):
    """Retransmission-buffer boundedness (paper §4.2.3 / §5).

    Parameters
    ----------
    per_peer_limit:
        Max unacked segments tolerated per (channel, peer).  Defaults to
        ``delivery_window + mq_retention`` (a gap-request catch-up
        replays up to the retained window unwindowed, §4.2.3) plus
        :data:`DEFAULT_PER_PEER_SLACK` for control traffic, resolved at
        :meth:`finish` from ``net.cfg`` when available.
    """

    name = "bounds"

    def __init__(self, trace=None, per_peer_limit: Optional[int] = None):
        self.per_peer_limit = per_peer_limit
        self.give_ups = 0
        super().__init__(trace)

    def handlers(self) -> Dict[Optional[str], Subscriber]:
        return {"transport.give_up": self._on_give_up}

    def _on_give_up(self, rec: TraceRecord) -> None:
        # Give-ups are best-effort semantics, not violations; counted so
        # reports show how hard the bounded-retransmission path worked.
        self.give_ups += 1

    # ------------------------------------------------------------------
    def _nodes(self, net: Any):
        for attr in ("nes", "sources", "mobile_hosts", "msss", "shs", "aps"):
            group = getattr(net, attr, None)
            if isinstance(group, dict):
                yield from group.values()

    def finish(self, net: Any = None, end_time: Optional[float] = None) -> None:
        if net is None:
            return
        cfg = getattr(net, "cfg", None)
        window = getattr(cfg, "delivery_window", 16) if cfg else 16
        retention = getattr(cfg, "mq_retention", 256) if cfg else 256
        limit = self.per_peer_limit
        if limit is None:
            limit = window + retention + DEFAULT_PER_PEER_SLACK
        for node in self._nodes(net):
            chan = getattr(node, "chan", None)
            if chan is None:
                continue
            for dst, peak in getattr(chan, "peak_in_flight_by_dst",
                                     {}).items():
                if peak > limit:
                    self.violation(
                        f"{node.id} -> {dst}: peak {peak} unacked segments "
                        f"exceeds limit {limit} (window {window} + "
                        f"retention {retention})"
                    )
        # Configured queue capacities are hard bounds.
        if cfg is not None and hasattr(net, "buffer_reports"):
            for rep in net.buffer_reports():
                if cfg.wq_capacity and rep["wq_peak"] > cfg.wq_capacity:
                    self.violation(
                        f"{rep['node']}: WQ peak {rep['wq_peak']} exceeds "
                        f"capacity {cfg.wq_capacity}"
                    )
                if cfg.mq_capacity and rep["mq_peak"] > cfg.mq_capacity:
                    self.violation(
                        f"{rep['node']}: MQ peak {rep['mq_peak']} exceeds "
                        f"capacity {cfg.mq_capacity}"
                    )

    def report(self) -> Dict[str, Any]:
        return {
            "monitor": self.name,
            "give_ups": self.give_ups,
            "violations": self.violation_count,
        }


class RecoveryMonitor(Monitor):
    """Recovery after a fault: a crash (``fault.crash``) or the heal of
    a :mod:`repro.faults` partition (``fault.heal``).

    Every such instant is judged the same way, once the run has gone a
    recovery window past it:

    * **the token resumes** — if it was rotating before the fault (the
      holds seen before the crash, or before that partition began),
      ``token.hold`` records resume within the window;
    * **delivery resumes** — if sources keep talking well past the
      instant, somebody reachable hears them within the window, unless
      no member has a live attachment point or no source a live NE.

    Two claims are heal-only: a partition that advertised a ``heal_at``
    but never emitted ``fault.heal`` by the end of the run is a
    violation (the fault subsystem broke its schedule), and an MH whose
    join/handoff was still unconfirmed when the last partition healed
    reaches ``mh.member`` within the window instead of staying wedged
    behind lost registrations.
    """

    name = "recovery"

    def __init__(self, trace=None,
                 recovery_window_ms: float = DEFAULT_RECOVERY_WINDOW_MS,
                 settle_ms: float = DEFAULT_SETTLE_MS):
        self.recovery_window_ms = recovery_window_ms
        self.settle_ms = settle_ms
        #: (time, what recovers, holds gating the token check).
        self._instants: List[Tuple[float, str, int]] = []
        self.crashes = 0
        #: partition index -> (start time, advertised heal_at, holds
        #: before it began).
        self._partitions: Dict[int, Tuple[float, Optional[float], int]] = {}
        self._healed: Set[int] = set()
        self._last_heal: Optional[float] = None
        self._holds = 0
        self._first_hold_after: Dict[int, float] = {}
        self._first_deliver_after: Dict[int, float] = {}
        #: Instants still awaiting their first hold / delivery, so the
        #: per-record work is O(1) once satisfied.
        self._awaiting_hold: List[int] = []
        self._awaiting_deliver: List[int] = []
        self._last_send: float = -1.0
        #: mh -> time of the last unconfirmed join/handoff (dropped on
        #: mh.member / mh.leave).
        self._pending_join: Dict[Any, float] = {}
        super().__init__(trace)

    def handlers(self) -> Dict[Optional[str], Subscriber]:
        return {
            "fault.crash": self._on_crash,
            "fault.partition": self._on_partition,
            "fault.heal": self._on_heal,
            "token.hold": self._on_hold,
            "mh.deliver": self._on_deliver,
            "source.send": self._on_send,
            "mh.join": self._on_join,
            "mh.member": self._on_confirmed,
            "mh.leave": self._on_confirmed,
        }

    # ------------------------------------------------------------------
    def _instant(self, t: float, what: str, holds_before: int) -> None:
        index = len(self._instants)
        self._instants.append((t, what, holds_before))
        self._awaiting_hold.append(index)
        self._awaiting_deliver.append(index)

    def _on_crash(self, rec: TraceRecord) -> None:
        self.crashes += 1
        self._instant(rec.time, f"the crash of {rec['node']}", self._holds)

    def _on_partition(self, rec: TraceRecord) -> None:
        self._partitions[rec["index"]] = (rec.time, rec.get("heal_at"),
                                          self._holds)

    def _on_heal(self, rec: TraceRecord) -> None:
        index = rec["index"]
        self._healed.add(index)
        self._last_heal = rec.time
        holds_before = self._partitions.get(index, (0.0, None, 0))[2]
        self._instant(rec.time, f"the heal of partition {index}",
                      holds_before)

    def _on_hold(self, rec: TraceRecord) -> None:
        self._holds += 1
        if self._awaiting_hold:
            for i in self._awaiting_hold:
                self._first_hold_after[i] = rec.time
            self._awaiting_hold.clear()

    def _on_deliver(self, rec: TraceRecord) -> None:
        if self._awaiting_deliver:
            for i in self._awaiting_deliver:
                self._first_deliver_after[i] = rec.time
            self._awaiting_deliver.clear()
        # An application delivery proves the MH's registration path
        # works end-to-end — as good as a membership confirmation.
        if self._pending_join:
            self._pending_join.pop(rec["mh"], None)

    def _on_send(self, rec: TraceRecord) -> None:
        self._last_send = rec.time

    def _on_join(self, rec: TraceRecord) -> None:
        self._pending_join[rec["mh"]] = rec.time

    def _on_confirmed(self, rec: TraceRecord) -> None:
        self._pending_join.pop(rec["mh"], None)

    # ------------------------------------------------------------------
    @staticmethod
    def _traffic_can_flow(net: Any) -> bool:
        """Does any member MH sit behind a live AP, and does any source
        feed a live NE?  A source whose corresponding node crashed is
        disconnected at the host level (the paper gives no source
        re-attachment mechanism), so deliveries legitimately stop when
        every member or every source is orphaned.  A net that cannot
        tell keeps the check armed."""
        if net is None or getattr(net, "nes", None) is None:
            return True
        if hasattr(net, "member_hosts") and not any(
                _live_ne(net, getattr(mh, "ap", None))
                for mh in net.member_hosts()):
            return False
        sources = getattr(net, "sources", None)
        return (not isinstance(sources, dict) or not sources
                or any(_live_ne(net, src.corresponding)
                       for src in sources.values()))

    def finish(self, net: Any = None, end_time: Optional[float] = None) -> None:
        if end_time is None:
            return
        window = self.recovery_window_ms
        for index, (t, heal_at, _) in sorted(self._partitions.items()):
            if index in self._healed or heal_at is None:
                continue
            if end_time - heal_at > self.settle_ms:
                self.violation(
                    f"partition {index} (t={t:.1f}) advertised heal at "
                    f"{heal_at:.1f} but never healed by end of run"
                )
        for i, (t, what, holds_before) in enumerate(self._instants):
            if end_time - t < window:
                continue  # run ended inside the recovery allowance
            # Only require token resumption when the token was actually
            # rotating before *this* fault (per instant, so an early
            # pre-token crash doesn't disarm the check for later ones).
            if holds_before:
                hold = self._first_hold_after.get(i)
                if hold is None or hold - t > window:
                    self.violation(
                        f"token did not resume within {window:.0f} ms of "
                        f"{what} at t={t:.1f}"
                    )
            if self._last_send > t + window:
                deliver = self._first_deliver_after.get(i)
                if (deliver is None or deliver - t > window) \
                        and self._traffic_can_flow(net):
                    self.violation(
                        f"deliveries did not resume within {window:.0f} ms "
                        f"of {what} at t={t:.1f}"
                    )
        last_heal = self._last_heal
        if last_heal is None or end_time <= last_heal + window:
            return
        hosts = getattr(net, "mobile_hosts", {})
        for mh, joined_at in sorted(self._pending_join.items()):
            if joined_at > last_heal:
                continue  # initiated after every heal: settle rules
            # A join wedged behind a *crashed* AP is a liveness question
            # for the crash instant, not for partition recovery.
            if net is not None and not _live_ne(
                    net, getattr(hosts.get(mh), "ap", None)):
                continue
            self.violation(
                f"membership did not re-converge: {mh} joined at "
                f"t={joined_at:.1f} and was still unconfirmed "
                f"{window:.0f} ms after the last heal (t={last_heal:.1f})"
            )

    def report(self) -> Dict[str, Any]:
        return {
            "monitor": self.name,
            "crashes": self.crashes,
            "partitions": len(self._partitions),
            "heals": len(self._instants) - self.crashes,
            "violations": self.violation_count,
        }
