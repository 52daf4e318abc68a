"""Open-world membership: Poisson session arrivals over a lazy catchment.

The closed-world scenarios build every MH up front.  Real deployments
look different: a metro-scale catchment of *potential* receivers, of
which only a heavy-tailed fraction is in-session at any instant.  The
:class:`OpenWorldDriver` models that — sessions arrive as a Poisson
process, each picks an idle catchment slot behind a random AP,
materializes it on first use via
:meth:`~repro.core.protocol.RingNet.activate_catchment`, and leaves
after a bounded-Pareto session length (many short sessions, a fat tail
of long-lived listeners).

Shard determinism: every decision draws from the replicated
``openworld`` rng stream inside control-plane (owner-less) events, and
the driver tracks session state itself — it never reads an MH's
``is_member`` flag, which only the owning shard maintains.  Join and
leave run in the MH's ownership section via ``call_owned``, exactly
like :class:`~repro.workloads.churn.ChurnDriver`, but with **no probe**:
unlike churn, no decision here needs globally-gathered state.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.net.address import NodeId


class OpenWorldDriver:
    """Drives session arrivals/departures over registered catchments.

    ``aps`` must list the APs (with catchment already registered on the
    facade) in a deterministic order; arrivals pick an AP uniformly and
    a slot uniformly within its catchment.  An arrival that lands on a
    slot already in session is dropped (counted in ``busy``) — with a
    catchment sized well above the offered load this is rare, and
    dropping keeps the draw sequence identical across shard counts.

    When a :class:`~repro.mobility.handoff.HandoffDriver` is supplied,
    arriving sessions roam: each arrival is handed to the mobility
    driver at its home AP and stops moving (where it stands) when the
    session ends.  Both hooks run inside the same control-plane events
    that already decide the session, so shard determinism is preserved.
    """

    def __init__(self, net, aps: Sequence[NodeId],
                 arrivals_per_sec: float = 50.0,
                 mean_session_ms: float = 1500.0,
                 alpha: float = 1.5,
                 max_session_ms: float = 60_000.0,
                 rng_name: str = "openworld",
                 mobility=None):
        if arrivals_per_sec <= 0:
            raise ValueError("arrivals_per_sec must be positive")
        if mean_session_ms <= 0:
            raise ValueError("mean_session_ms must be positive")
        if alpha <= 1.0:
            raise ValueError("alpha must be > 1 (finite mean)")
        self.net = net
        self.sim = net.sim
        self.aps = [ap for ap in aps if net.catchment_size(ap) > 0]
        if not self.aps:
            raise ValueError("no AP with a registered catchment")
        self.arrivals_per_sec = arrivals_per_sec
        self.mean_session_ms = mean_session_ms
        self.alpha = alpha
        self.max_session_ms = max_session_ms
        self.mobility = mobility
        self.rng = self.sim.rng(rng_name)
        self.sessions = 0
        self.departures = 0
        self.busy = 0
        #: Slots currently in session — replicated driver state, the
        #: sole membership authority this driver consults.
        self._in_session: Dict[Tuple[NodeId, int], float] = {}
        #: Slots materialized at least once (re-joins skip creation).
        self._materialized = set()
        self.log: List[Tuple[float, str, NodeId]] = []
        self._running = False

    def start(self) -> None:
        """Begin the arrival process."""
        self._running = True
        self._schedule()

    def stop(self) -> None:
        """Stop generating further arrivals (live sessions still end)."""
        self._running = False

    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        gap = float(self.rng.exponential(1000.0 / self.arrivals_per_sec))
        self.sim.schedule(gap, self._arrive)

    def _session_length(self) -> float:
        """Bounded-Pareto session length (ms) with mean ``mean_session_ms``."""
        xm = self.mean_session_ms * (self.alpha - 1.0) / self.alpha
        u = float(self.rng.random())
        x = xm / (1.0 - u) ** (1.0 / self.alpha)
        return max(1.0, min(x, self.max_session_ms))

    def _arrive(self) -> None:
        if not self._running:
            return
        ap = self.aps[int(self.rng.integers(len(self.aps)))]
        idx = int(self.rng.integers(self.net.catchment_size(ap)))
        # Draw the length unconditionally so the rng stream consumed per
        # arrival is fixed — a busy-slot drop must not shift later draws.
        length = self._session_length()
        slot = (ap, idx)
        if slot in self._in_session:
            self.busy += 1
        else:
            mh_id = self.net.catchment_mh_id(ap, idx)
            if slot in self._materialized:
                # The driver itself ended the previous session, so the
                # slot is known-departed; re-join without peeking at the
                # MH's (shard-local) membership flag.
                mh = self.net.mobile_hosts[mh_id]
                self.sim.call_owned(mh_id, mh.join, ap)
            else:
                self.net.activate_catchment(ap, idx)
                self._materialized.add(slot)
            self._in_session[slot] = self.sim.now
            self.sessions += 1
            self.log.append((self.sim.now, "arrive", mh_id))
            if self.mobility is not None:
                self.mobility.track(mh_id, ap)
            self.sim.schedule(length, self._depart, ap, idx)
        self._schedule()

    def _depart(self, ap: NodeId, idx: int) -> None:
        self._in_session.pop((ap, idx), None)
        mh_id = self.net.catchment_mh_id(ap, idx)
        mh = self.net.mobile_hosts[mh_id]
        self.departures += 1
        self.log.append((self.sim.now, "depart", mh_id))
        if self.mobility is not None:
            self.mobility.stop(mh_id)
        self.sim.call_owned(mh_id, mh.leave)
