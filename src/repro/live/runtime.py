"""The wall-clock :class:`~repro.runtime.api.Runtime` over asyncio.

Timing model
------------
Deadlines are *logical milliseconds since run start*, mapped onto the
event loop's monotonic clock by ``wall = start + deadline·time_scale``.
``time_scale`` is wall seconds per logical second: ``1.0`` is real time,
``0.1`` replays the same logical schedule ten times faster (useful for
CI smoke runs — logical timestamps, and therefore every trace record
and metric, are unchanged).

The clock: :attr:`now` is a plain attribute, as on the sim engine.  It
reads the executing callback's *scheduled deadline*, not the (slightly
later) wall instant it actually ran at; between callbacks, the last
executed deadline; after a run that reached its horizon, the horizon.
A :class:`~repro.runtime.timers.PeriodicTimer` that re-arms with
``schedule(period)`` therefore ticks on the absolute grid ``phase +
k·period`` — lateness of one tick never leaks into the next, matching
the sim engine's semantics exactly.  The wall lateness itself is
tracked (:attr:`max_lag_ms`, :attr:`lag_sum_ms`) so a run report can
show how far behind the loop fell; :meth:`LiveRuntime.wall_now` reads
the wall.

When the loop yields: callbacks that are due run back to back, in
``(deadline, schedule order)`` order, without returning to asyncio in
between.  The loop hands control back (one trip through the selector,
every ready task runs once) only

* to sleep, when the next deadline (or the horizon) is still in the
  wall-clock future;
* after :data:`YIELD_EVERY` callbacks in a row, and only while a
  service is registered: a service (sockets) is the one thing outside
  the heap that can hold input, and it is polled while the loop works
  off a backlog.

An in-process fabric schedules each arrival on the heap when the
message is sent, so with no service the heap is all the input there
is: executed deadlines never go backwards and arrivals interleave with
timers exactly where the sim's heap puts them, however late the loop
is running.  Services injecting work from their own tasks (datagram
receivers) use :meth:`run_inline`, at the wall instant of the input,
so protocol code still executes with a consistent clock and owner
context.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.runtime.api import _INHERIT, Runtime
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceBus

if TYPE_CHECKING:
    import asyncio

_INF = float("inf")

#: Callbacks the loop runs back to back before it yields unprompted,
#: while a service is registered.  It bounds how long a service's input
#: (UDP sockets, foreign tasks) waits while the loop works off a
#: backlog: asyncio runs a reader found ready by one poll after the
#: batch already queued, so up to two batches — about 1.5 ms of
#: callbacks at 64 — and its datagram transport reads one datagram per
#: socket per poll.  Wall cost was flat from 32 up, +3.5% at 16, +11%
#: at 8; UDP goodput under overload showed no trend between 16 and 256.
YIELD_EVERY = 64


class LiveHandle:
    """A scheduled live callback; satisfies the seam's handle contract
    (a ``cancelled`` attribute is all the timers inspect)."""

    __slots__ = ("time", "fn", "args", "owner", "cancelled")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple,
                 owner: Optional[str]):
        self.time = time
        self.fn = fn
        self.args = args
        self.owner = owner
        self.cancelled = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<LiveHandle t={self.time:.6g} {name} {state}>"


class LiveRuntime(Runtime):
    """Wall-clock runtime: logical-deadline heap paced by asyncio.

    Parameters
    ----------
    seed:
        Master seed for the named random streams — the same derivation
        as the sim engine, so a live run draws the same per-stream
        sequences the sim would (the differential harness depends on
        this).
    time_scale:
        Wall seconds per logical second (default 1.0 = real time).
    trace:
        Optional pre-built :class:`TraceBus`.
    """

    def __init__(self, seed: int = 0, time_scale: float = 1.0,
                 trace: Optional[TraceBus] = None):
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.seed = seed
        self.time_scale = time_scale
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else TraceBus()
        self.trace._sim = self
        self._heap: List[Tuple[float, int, LiveHandle]] = []
        self._seq = 0
        self._ctx_owner: Optional[str] = None
        #: Logical time (ms); see the module docstring.
        self.now = 0.0
        #: The asyncio module, bound by the first :meth:`arun`: a process
        #: that never runs live never imports it (nor ssl, socket, ...).
        self._asyncio: Any = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wall0 = 0.0
        self._wake: Optional[asyncio.Event] = None
        #: Deadline the loop is asleep toward (-inf while it is awake).
        self._sleeping_toward = -_INF
        self._stopped = False
        self._services: List[Any] = []
        # Run accounting.
        self.events_processed = 0
        self.yields = 0
        self.max_lag_ms = 0.0
        self.lag_sum_ms = 0.0

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def wall_now(self) -> float:
        """The wall clock in logical ms since the run started (``now``
        when no run is in progress)."""
        if self._loop is None:
            return self.now
        return (self._loop.time() - self._wall0) * 1000.0 / self.time_scale

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 owner: Any = _INHERIT) -> LiveHandle:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args, owner=owner)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    owner: Any = _INHERIT) -> LiveHandle:
        """Schedule at an absolute logical time.

        Unlike the sim engine, a deadline already in the past is not an
        error — wall clocks drift, so it simply runs as soon as the loop
        gets to it.
        """
        if owner is _INHERIT:
            owner = self._ctx_owner
        handle = LiveHandle(time, fn, args, owner)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, handle))
        if time < self._sleeping_toward:
            # A new earliest deadline must interrupt the loop's sleep.
            self._wake.set()
        return handle

    def cancel(self, handle: LiveHandle) -> None:
        handle.cancelled = True

    def resume(self, handle: LiveHandle, period: float) -> LiveHandle:
        """Re-queue a parked periodic chain at its first grid instant
        after ``now`` — by time alone: this backend has no causal keys,
        so a tick due exactly now counts as passed."""
        t = handle.time
        now = self.now
        while t <= now:
            t += period
        return self.schedule_at(t, handle.fn, *handle.args,
                                owner=handle.owner)

    @property
    def pending(self) -> int:
        """Number of non-cancelled callbacks still queued."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def queued(self, fn: Callable[..., Any]) -> int:
        """Number of non-cancelled calls of ``fn`` still queued."""
        return sum(1 for _, _, h in self._heap
                   if h.fn == fn and not h.cancelled)

    # ------------------------------------------------------------------
    # Deterministic services / contexts
    # ------------------------------------------------------------------
    def rng(self, name: str):
        return self.streams.get(name)

    def call_owned(self, owner: Any, fn: Callable[..., Any], *args: Any):
        saved = self._ctx_owner
        self._ctx_owner = owner
        try:
            return fn(*args)
        finally:
            self._ctx_owner = saved

    @property
    def current_owner(self) -> Optional[str]:
        return self._ctx_owner

    def run_inline(self, owner: Optional[str], at: float,
                   fn: Callable[..., Any], *args: Any):
        """Execute ``fn(*args)`` immediately with ``now`` set to ``at``
        (restored afterwards) and the owner context set.

        The entry point for service tasks (datagram receivers) handing
        work to protocol code: everything the callback emits or
        schedules sees a consistent clock, exactly as if it had been
        dispatched from the deadline heap.
        """
        saved_owner = self._ctx_owner
        saved_now = self.now
        self._ctx_owner = owner
        self.now = at
        try:
            return fn(*args)
        finally:
            self.now = saved_now
            self._ctx_owner = saved_owner

    # ------------------------------------------------------------------
    # Services (fabrics with async setup/teardown)
    # ------------------------------------------------------------------
    def add_service(self, service: Any) -> None:
        """Register an object with async ``start()``/``stop()`` hooks,
        awaited around the run loop (socket binding); while one is
        registered the loop polls it every :data:`YIELD_EVERY`
        callbacks."""
        self._services.append(service)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Blocking entry point — runs :meth:`arun` in a fresh loop.

        Mirrors ``Simulator.run(until=...)`` so an armed
        :class:`~repro.workloads.scenarios.Scenario` runs unmodified on
        this backend.  ``max_events`` is accepted for signature parity.
        """
        import asyncio
        asyncio.run(self.arun(until=until, max_events=max_events))

    async def arun(self, until: Optional[float] = None,
                   max_events: Optional[int] = None) -> None:
        """Run the deadline loop until ``until`` logical ms.

        ``until`` is inclusive, like the sim engine: callbacks scheduled
        exactly at the horizon fire, and ``now`` ends at the horizon.
        With ``until=None`` the loop exits when the heap drains (``now``
        ends at the last deadline) — only sensible without socket
        services that may inject new work.
        """
        if self._loop is not None:
            raise RuntimeError("runtime is already running")
        import asyncio
        self._asyncio = asyncio
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._wake = asyncio.Event()
        self._stopped = False
        self._wall0 = loop.time()
        started: List[Any] = []
        try:
            # Inside the try: a start() that raises (a bind error) must
            # still stop what did start and leave the runtime runnable.
            for svc in self._services:
                await svc.start()
                started.append(svc)
            await self._loop_until(until, max_events)
        finally:
            for svc in reversed(started):
                await svc.stop()
            self._loop = None
            self._wake = None

    async def _loop_until(self, until: Optional[float],
                          max_events: Optional[int]) -> None:
        loop = self._loop
        heap = self._heap
        scale = self.time_scale / 1000.0    # wall seconds per logical ms
        last = _INF if until is None else until
        # With no service, nothing outside the heap can hold input.
        every = YIELD_EVERY if self._services else _INF
        wall_ms = 0.0       # the wall clock, in logical ms, as last read
        processed = 0
        batch = 0           # callbacks run since the loop last yielded
        while not self._stopped:
            if heap:
                t, _, handle = heap[0]
                if handle.cancelled:
                    heapq.heappop(heap)
                    continue
            if not heap or t > last:
                if until is None:
                    break  # heap drained, no horizon: done
                # Sleep toward the horizon, but stay interruptible — a
                # service may inject new work.
                wall_ms = (loop.time() - self._wall0) / scale
                if wall_ms >= until:
                    self.now = until
                    break
                pause, toward = (until - wall_ms) * scale, until
            elif t > wall_ms:
                # Not due at the last clock reading: look again.
                wall_ms = (loop.time() - self._wall0) / scale
                if t <= wall_ms:
                    continue
                pause, toward = (t - wall_ms) * scale, t
            elif batch >= every:
                # The services have not been polled for a while.
                pause, toward = 0.0, _INF
            else:
                heapq.heappop(heap)
                self._execute(handle, wall_ms)
                batch += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    return
                continue
            await self._yield(pause, toward)
            batch = 0
            wall_ms = (loop.time() - self._wall0) / scale

    async def _yield(self, dt_wall: float, toward: float) -> None:
        """Hand control to asyncio: every ready task runs once and the
        selector is polled.  With ``dt_wall`` > 0, additionally sleep up
        to that many seconds toward logical deadline ``toward``, waking
        early for :meth:`stop` or a deadline scheduled before it."""
        self.yields += 1
        asyncio = self._asyncio
        if dt_wall <= 0:
            await asyncio.sleep(0)
            return
        self._wake.clear()
        self._sleeping_toward = toward
        try:
            await asyncio.wait_for(self._wake.wait(), timeout=dt_wall)
        except asyncio.TimeoutError:
            pass
        finally:
            self._sleeping_toward = -_INF

    def _execute(self, handle: LiveHandle, wall_ms: float) -> None:
        lag = wall_ms - handle.time
        if lag > self.max_lag_ms:
            self.max_lag_ms = lag
        if lag > 0:
            self.lag_sum_ms += lag
        saved_owner = self._ctx_owner
        self._ctx_owner = handle.owner
        self.now = handle.time
        try:
            handle.fn(*handle.args)
        finally:
            self._ctx_owner = saved_owner
        self.events_processed += 1

    def stop(self) -> None:
        """Request the loop to stop after the current callback."""
        self._stopped = True
        if self._wake is not None:
            self._wake.set()

    # ------------------------------------------------------------------
    def lag_report(self) -> dict:
        """Wall-lateness accounting for the finished (or running) run."""
        n = self.events_processed
        return {
            "events": n,
            # Times the loop handed control to asyncio: sleeps, plus the
            # polls of a registered service during a backlog.
            "yields": self.yields,
            "max_lag_ms": round(self.max_lag_ms, 3),
            "mean_lag_ms": round(self.lag_sum_ms / n, 3) if n else 0.0,
            "time_scale": self.time_scale,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LiveRuntime t={self.now:.6g} pending={self.pending} "
                f"processed={self.events_processed} seed={self.seed}>")
