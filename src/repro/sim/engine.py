"""The event-heap scheduler at the heart of the simulator.

Design notes
------------
The engine is a single-threaded priority queue of timestamped callbacks.
Events are ordered by ``(time, key)`` where ``key`` is a 64-bit
**causal key** derived from the key of the event that scheduled it and a
per-parent child counter (splitmix64-style mixing).  Unlike the global
scheduling counter the engine used before, causal keys are
*decomposition-invariant*: they do not depend on how the event
population is interleaved globally, only on each event's causal
ancestry.  That is what lets the space-parallel backend
(:mod:`repro.shard`) run one engine per shard and still reproduce the
sequential engine's event order — and therefore its canonical trace —
byte for byte.  For a fixed seed and workload every run remains fully
deterministic; simultaneous events execute in causal-key order, which is
arbitrary but stable across runs, processes, and shard counts.

Cancellation is *lazy*: :meth:`Simulator.cancel` marks the event and the
main loop discards cancelled entries when they surface, so cancel is O(1)
and the heap never needs re-sifting.  This matters because protocol
retransmission timers are cancelled far more often than they fire.

Lazy cancellation alone leaks: a retransmission timer cancelled on ack
sits in the heap until its (far-future) deadline surfaces, so a long run
accumulates millions of dead entries.  The simulator therefore *compacts*
— rebuilds the heap from only the live events — whenever cancelled
entries outnumber live ones and the heap is big enough to care
(:data:`COMPACT_MIN_SIZE`).  Compaction cannot change behaviour: event
order is a (probabilistically) strict total order on ``(time, key)``, so
popping from the rebuilt heap yields exactly the same sequence of events.

The heap itself stores ``(time, key, Event)`` tuples rather than bare
events: ``(time, key)`` collides only on a 64-bit hash collision at an
identical float timestamp, so comparisons essentially never reach the
event object and stay entirely in C.

Hot-path contract: every heap admission passes ``schedule_at`` or
``schedule_keyed`` and every dispatch ``_execute``.  Those, with ``run``/
``schedule``/``cancel``/``call_owned``, are *seams* and stay real methods
the traffic traverses: the shard gate is consulted in ``schedule_at`` and
``call_owned`` (after the counters tick, so keys stay aligned),
``repro.obs`` routes dispatches through ``_execute``, and ``perfbench``
counts and times calls by shimming exactly these class attributes.
Between them nothing costs a frame per event: the heap push and its
high-water mark live inside the two admission methods, per-message
callers (fabric, transport, periodic timers) call ``schedule_at(now +
delay, ...)`` directly, and a loop turn reads ``heap[0]`` once.  ``run``
and ``run_window`` are two stop conditions on one loop (``_loop``).  A
periodic chain that parked (:class:`~repro.runtime.timers.PeriodicTimer`)
leaves through ``cancel`` and re-enters through ``schedule_keyed``
(:meth:`Simulator.resume`), so the admission balance still holds.

Execution contexts and ownership
--------------------------------
Every event carries an ``owner`` — the id of the simulated entity whose
behaviour it implements, or ``None`` for *control-plane* events
(topology maintenance, scenario drivers) that the sharded backend
replicates in every shard.  Events inherit the owner of the context that
schedules them; :meth:`Simulator.call_owned` runs a code section under a
different owner (used at the control→entity boundary, e.g. "start this
NE", "this MH joins").  In sequential runs ownership is inert metadata;
a sharded worker installs :attr:`Simulator.gate` to drop events whose
owner lives on another shard.  Counters tick even for dropped work so
causal keys stay aligned across shards.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional, Tuple

from repro.runtime.api import _INHERIT, Runtime
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceBus


class SimulationError(RuntimeError):
    """Raised for scheduler misuse (negative delays, running twice, ...)."""


#: Heaps smaller than this are never compacted: rebuilding a tiny heap
#: costs more than letting the main loop skip its few dead entries.
COMPACT_MIN_SIZE = 64

_MASK = (1 << 64) - 1
#: Sorts after every causal key: the inclusive end of an instant.
_KEY_END = _MASK + 1
_INF = float("inf")


def mix_key(base: int, salt: int) -> int:
    """Derive a child causal key: FNV-combine then splitmix64 finalize.

    Pure integer arithmetic, so the result is identical across
    platforms, processes, and Python versions.  The low bit is forced to
    1 so every derived key is nonzero — key 0 is reserved for the build
    phase, which must sort before any event at the same timestamp.
    """
    z = (base * 0x100000001B3 ^ salt) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) | 1


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`; hold on to one only if you may need to
    :meth:`Simulator.cancel` it.  An event refused by the shard gate
    comes back already cancelled (``in_heap`` False), so timers treat it
    as unarmed without special-casing.
    """

    __slots__ = ("time", "key", "fn", "args", "owner", "cancelled", "in_heap")

    def __init__(self, time: float, key: int, fn: Callable[..., Any],
                 args: tuple, owner: Optional[str] = None):
        self.time = time
        self.key = key
        self.fn = fn
        self.args = args
        self.owner = owner
        self.cancelled = False
        # Whether the event is still queued; lets Simulator.cancel keep an
        # exact live count even when cancelling an already-fired event.
        self.in_heap = True

    def __lt__(self, other: "Event") -> bool:
        """Heap fallback, not the ordering path: entries are ``(time,
        key, Event)`` tuples, so this runs only when two entries tie on
        both — a 64-bit key collision at an identical timestamp — where
        it keeps ``heapq`` from raising ``TypeError``."""
        if self.time != other.time:
            return self.time < other.time
        return self.key < other.key

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return (f"<repro.sim.engine.Event t={self.time:.6g} "
                f"key={self.key:#x} {name} {state}>")


class Simulator(Runtime):
    """Deterministic discrete-event simulator.

    The canonical :class:`~repro.runtime.api.Runtime` implementation —
    the protocol stack above only ever uses the seam surface, so this
    engine and the wall-clock backend in :mod:`repro.live` are
    interchangeable underneath it.

    Parameters
    ----------
    seed:
        Master seed for all random streams (see :class:`RandomStreams`).
    trace:
        Optional pre-built :class:`TraceBus`; one is created if omitted.

    Attributes
    ----------
    now:
        Current simulated time.  Starts at ``0.0`` and only moves forward.
    trace:
        The structured trace bus; emit with ``sim.trace.emit(...)``.
    gate:
        Optional ``gate(owner) -> bool`` predicate installed by a shard
        worker; owners for which it returns False have their events
        dropped (counters still tick).  ``None`` (the default) keeps
        every event — the exact sequential path.
    obs_hook:
        The attached :class:`~repro.obs.session.ObsSession`, or
        ``None``: the one telemetry attribute.  While set, the run loops
        route every sampled dispatch through
        ``obs_hook.slow_dispatch(self, ev)`` — which executes the event
        via :meth:`_execute` and observes it (window folding,
        stride-sampled wall timing, heap depth).  Protocol code never
        reads it.  Observation is strictly out-of-band: the hook never
        schedules, emits, or draws randomness, so the event sequence is
        bit-identical either way.
    shard:
        The worker's shard context when running under
        :mod:`repro.shard`, else ``None``.  Scenario drivers consult it
        to register cross-shard synchronization probes.
    """

    def __init__(self, seed: int = 0, trace: Optional[TraceBus] = None):
        self.now: float = 0.0
        self._heap: list[Tuple[float, int, Event]] = []
        self._running = False
        self._stopped = False
        self._cancelled_in_heap: int = 0
        self.seed = seed
        self.streams = RandomStreams(seed)
        self.trace = trace if trace is not None else TraceBus()
        self.trace._sim = self
        self.events_processed: int = 0
        self.peak_heap: int = 0
        self.compactions: int = 0
        # Execution context: current owner, causal-key base, the
        # outermost event key (for emission keys), the owned-section
        # nesting path, and the action/emission counters.  The build
        # phase runs with key 0 so its records sort before any event's.
        self._ctx_owner: Optional[str] = None
        self._ctx_key: int = 0
        self._ctx_root: int = 0
        self._ctx_path: tuple = ()
        self._ctx_actions: int = 0
        self._ctx_emits: int = 0
        self.gate: Optional[Callable[[Any], bool]] = None
        self.shard = None
        self.obs_hook = None
        self.spans = None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 owner: Any = _INHERIT) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args, owner=owner)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    owner: Any = _INHERIT) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time.

        ``owner`` defaults to the scheduling context's owner; pass an
        entity id to hand the event to a different entity (the fabric
        does this for message arrivals) or ``None`` to mark it
        control-plane.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        a = self._ctx_actions
        self._ctx_actions = a + 1
        # Inline mix_key(self._ctx_key, a << 1): this is the hot path.
        z = (self._ctx_key * 0x100000001B3 ^ (a << 1)) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        key = (z ^ (z >> 31)) | 1
        if owner is _INHERIT:
            owner = self._ctx_owner
        ev = Event(time, key, fn, args, owner)
        gate = self.gate
        if gate is not None and owner is not None and not gate(owner):
            # Non-local entity: the event exists only for key alignment.
            ev.cancelled = True
            ev.in_heap = False
            return ev
        heap = self._heap
        heappush(heap, (time, key, ev))
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return ev

    def schedule_keyed(self, time: float, key: int, owner: Any,
                       fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule with an explicit causal key (cross-shard imports).

        The key was minted by the sending shard's context, so no local
        counter ticks; the gate is bypassed — the shard runtime only
        imports events it owns.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot import at t={time} before current time t={self.now}"
            )
        ev = Event(time, key, fn, args, owner)
        heap = self._heap
        heappush(heap, (time, key, ev))
        if len(heap) > self.peak_heap:
            self.peak_heap = len(heap)
        return ev

    def resume(self, handle: Event, period: float) -> Event:
        """Re-queue a parked periodic chain (see :meth:`Runtime.resume`)
        at its first tick the engine has not yet passed.

        Each skipped tick advances ``(time, key)`` exactly as firing it
        would have: the re-arm is action 0 of a tick's context.  A tick
        has passed when it sorts at or before the executing event —
        between runs, when it is not after ``now`` (``run``'s horizon
        is inclusive).  Enters through :meth:`schedule_keyed`, so no
        counter ticks and the chain stays with the handle's owner.
        """
        t = handle.time
        key = handle.key
        now = self.now
        root = self._ctx_root if self._running else _KEY_END
        while t < now or (t == now and key <= root):
            t += period
            key = mix_key(key, 0)
        return self.schedule_keyed(t, key, handle.owner, handle.fn,
                                   *handle.args)

    def mint_child_key(self) -> int:
        """Tick the action counter and return the key a
        :meth:`schedule_at` call made right now would assign.

        Used by the fabric when it exports a cross-shard arrival instead
        of scheduling it locally: the importing shard must see exactly
        the key the sequential engine would have used.
        """
        a = self._ctx_actions
        self._ctx_actions = a + 1
        return mix_key(self._ctx_key, a << 1)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        if event.cancelled:
            return
        event.cancelled = True
        if not event.in_heap:
            return
        self._cancelled_in_heap += 1
        # Compact when dead entries dominate a heap worth compacting;
        # amortized O(1) per cancel, and retransmission timers cancelled
        # on ack no longer accumulate until their far-future deadlines.
        if (self._cancelled_in_heap * 2 > len(self._heap)
                and len(self._heap) >= COMPACT_MIN_SIZE):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap from live events only (order-preserving).

        In place: the run loops hold a reference to the heap list, and
        compaction can fire mid-event (via :meth:`cancel`), so the list
        object must survive.
        """
        heap = self._heap
        for entry in heap:
            if entry[2].cancelled:
                entry[2].in_heap = False
        heap[:] = [e for e in heap if not e[2].cancelled]
        heapify(heap)
        self._cancelled_in_heap = 0
        self.compactions += 1

    def _discard_cancelled_top(self) -> None:
        """Pop cancelled entries off the top of the heap."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)[2].in_heap = False
            self._cancelled_in_heap -= 1

    # ------------------------------------------------------------------
    # Ownership contexts
    # ------------------------------------------------------------------
    def call_owned(self, owner: Any, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` in a sub-context owned by ``owner``.

        This is the control→entity boundary: scenario drivers and the
        protocol facade wrap entity behaviour ("start this source",
        "this MH leaves") so a shard worker can skip the section when
        the entity lives elsewhere.  Both counters tick *before* the
        gate check, so skipping shards stay key-aligned with the owner
        shard; the section gets a fresh key namespace, so the amount of
        work done inside never leaks into the enclosing context's keys.

        Returns ``fn``'s result, or ``None`` when the section was
        skipped by the gate.
        """
        a = self._ctx_actions
        e = self._ctx_emits
        self._ctx_actions = a + 1
        self._ctx_emits = e + 1
        gate = self.gate
        if gate is not None and owner is not None and not gate(owner):
            return None
        saved = (self._ctx_owner, self._ctx_key, self._ctx_path,
                 self._ctx_actions, self._ctx_emits)
        self._ctx_owner = owner
        self._ctx_key = mix_key(self._ctx_key, (a << 1) | 1)
        self._ctx_path = self._ctx_path + (e,)
        self._ctx_actions = 0
        self._ctx_emits = 0
        try:
            return fn(*args)
        finally:
            (self._ctx_owner, self._ctx_key, self._ctx_path,
             self._ctx_actions, self._ctx_emits) = saved

    @property
    def current_owner(self) -> Optional[str]:
        """Owner of the currently executing context (None = control)."""
        return self._ctx_owner

    def emission_key(self) -> tuple:
        """Sort key (without time) for the record being emitted now.

        ``(root event key, *owned-section path, per-context emission
        counter)`` — compared lexicographically, and identical for a
        given record no matter how the event population is sharded.
        Ticks the emission counter; used only by keyed trace recorders.
        """
        e = self._ctx_emits
        self._ctx_emits = e + 1
        return (self._ctx_root,) + self._ctx_path + (e,)

    # ------------------------------------------------------------------
    # Random streams
    # ------------------------------------------------------------------
    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self.streams.get(name)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _execute(self, ev: Event) -> None:
        """Advance the clock and run one event in its own context."""
        self.now = ev.time
        self._ctx_owner = ev.owner
        self._ctx_key = ev.key
        self._ctx_root = ev.key
        self._ctx_path = ()
        self._ctx_actions = 0
        self._ctx_emits = 0
        ev.fn(*ev.args)
        self.events_processed += 1

    def _loop(self, stop_time: float, stop_key: int,
              max_events: Optional[int]) -> int:
        """The one event loop, behind :meth:`run` and :meth:`run_window`:
        execute pending events strictly below ``(stop_time, stop_key)``
        until :meth:`stop` or ``max_events``; returns how many ran.
        The stop test costs one float compare while ``t < stop_time``.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        processed = 0
        heap = self._heap
        # Observability is kept off the common path: the loop holds the
        # sampling countdown as a local and only calls into the hook on
        # a sampled dispatch — with no hook the loop is byte-for-byte
        # the pre-obs loop, and with one the fast path adds a single
        # int decrement and truth test.
        hook = self.obs_hook
        hk_count = hook._countdown if hook is not None else 0
        try:
            while heap:
                if self._stopped:
                    break
                t, k, ev = heap[0]
                if ev.cancelled:
                    heappop(heap)
                    ev.in_heap = False
                    self._cancelled_in_heap -= 1
                    continue
                if t >= stop_time and (t > stop_time or k >= stop_key):
                    break
                heappop(heap)
                ev.in_heap = False
                if t < self.now:  # pragma: no cover - defensive
                    raise SimulationError("event heap yielded a past event")
                if hook is None:
                    self._execute(ev)
                else:
                    hk_count -= 1
                    if hk_count:
                        self._execute(ev)
                    else:
                        hk_count = hook.slow_dispatch(self, ev)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            if hook is not None:
                hook._countdown = hk_count
            self._running = False
        return processed

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Run until the event heap drains, ``until`` is reached, or
        ``max_events`` have been processed.

        ``until`` is inclusive: events scheduled exactly at ``until`` fire,
        and ``now`` is advanced to ``until`` even if the heap drains early
        (so periodic metric sampling sees a consistent end time).
        """
        self._loop(_INF if until is None else until, _KEY_END, max_events)
        # Advance the clock to the requested horizon when nothing is
        # pending before it (so periodic samplers see a consistent end
        # time even if the heap drained or only future events remain).
        if until is not None and until > self.now:
            nxt = self.peek()
            if nxt is None or nxt > until:
                self.now = until

    def run_window(self, stop_time: float, stop_key: int = 0,
                   inclusive: bool = False) -> int:
        """Window-stepping API for the sharded backend.

        Executes pending events strictly below ``(stop_time, stop_key)``
        — or, with ``inclusive=True``, every event with
        ``time <= stop_time`` regardless of key (the final horizon tail,
        matching :meth:`run`'s inclusive ``until``).  Does *not* advance
        ``now`` past the last executed event; the caller owns the final
        clock advance.  Returns the number of events processed.
        """
        return self._loop(stop_time, _KEY_END if inclusive else stop_key,
                          None)

    def stop(self) -> None:
        """Request the main loop to stop after the current event."""
        self._stopped = True

    def step(self) -> bool:
        """Process exactly one pending event.  Returns False if none left."""
        self._discard_cancelled_top()
        if not self._heap:
            return False
        ev = heappop(self._heap)[2]
        ev.in_heap = False
        # :meth:`resume` must see an executing event here, as in `run`.
        was_running, self._running = self._running, True
        try:
            self._execute(ev)
        finally:
            self._running = was_running
        return True

    def peek(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None."""
        self._discard_cancelled_top()
        return self._heap[0][0] if self._heap else None

    def peek_entry(self) -> Optional[Tuple[float, int]]:
        """``(time, key)`` of the next live event, or None."""
        self._discard_cancelled_top()
        if not self._heap:
            return None
        t, k, _ = self._heap[0]
        return (t, k)

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._heap) - self._cancelled_in_heap

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self.now:.6g} pending={self.pending} "
            f"processed={self.events_processed} seed={self.seed}>"
        )
