"""Restartable one-shot and periodic timers over the runtime seam.

Protocol state machines use these instead of raw :meth:`Runtime.schedule`
so that the common patterns — "restart the retransmission timer", "tick the
Order-Assignment task every τ" — are one-liners with correct cancellation
semantics.  They depend only on the :class:`~repro.runtime.api.Runtime`
contract (``schedule``/``cancel``/``resume`` plus handles with a
``cancelled`` attribute), so the same timer code runs on the
discrete-event engine and on the wall-clock asyncio backend.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.api import Runtime


class Timer:
    """A one-shot timer that can be started, restarted, and stopped.

    Restarting an armed timer cancels the in-flight event; the callback
    never fires more than once per arm.  Every arm schedules the same
    callback object, ``_fire`` bound once at construction.
    """

    __slots__ = ("sim", "fn", "args", "_event", "_fire_cb")

    def __init__(self, sim: Runtime, fn: Callable[..., Any], *args: Any):
        self.sim = sim
        self.fn = fn
        self.args = args
        self._event: Optional[Any] = None
        self._fire_cb = self._fire

    @property
    def armed(self) -> bool:
        """True while a fire is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` units from now."""
        self.stop()
        self._event = self.sim.schedule(delay, self._fire_cb)

    def stop(self) -> None:
        """Disarm; safe to call when not armed."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fn(*self.args)


class PeriodicTimer:
    """Fires ``fn`` every ``period`` units until stopped.

    The first fire happens one full period after :meth:`start` (optionally
    offset by ``phase``), matching the paper's description of the
    Order-Assignment task that "periodically checks its WQ" with cycle τ.

    **Quiescence.**  The stack does not poll: a chain is armed only
    while its owner has work, and it parks at the tick or at the
    mutation that drains the work.  The owner calls :meth:`wake` at the
    mutation that can create work.  Three callers: ``_deliver_contiguous``
    wakes the MH gap tick when it stops short of ``rear`` and parks it
    when it reaches ``rear``; an MQ insert that jumps ``rear`` or a
    standby ``PathReserve`` wakes the NE maintenance tick, and the fill
    or tombstone that leaves no hole (and no standby MMA entry) parks
    it; the τ tick parks after every tick, and a ``RingRaw`` insert, a
    token pass or a killed held token wakes it only when a WQ entry has
    become coverable (``core/ordering.py``).  Parking never moves a
    tick: the chain resumes (:meth:`Runtime.resume`) on its own grid
    ``start + k·period`` — on the engine at the very ``(time, causal
    key)`` the skipped ticks would have handed down — so a parked run
    is the polling run minus the ticks that did nothing.  The grid
    itself (30 ms gap checks, τ) is an artefact the goldens pin, not a
    protocol need: a regeneration may replace it by exact deadlines.

    Every tick schedules the same callback object, ``_fire`` bound once
    at construction.
    """

    __slots__ = ("sim", "period", "phase", "fn", "args", "_event",
                 "_parked", "fires", "_fire_cb")

    def __init__(
        self,
        sim: Runtime,
        period: float,
        fn: Callable[..., Any],
        *args: Any,
        phase: float = 0.0,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.sim = sim
        self.period = period
        self.phase = phase
        self.fn = fn
        self.args = args
        self._event: Optional[Any] = None
        #: While parked: the cancelled handle of the chain's next tick —
        #: the resume point.
        self._parked: Optional[Any] = None
        #: Ticks executed (a tick skipped while parked is not one).
        self.fires: int = 0
        self._fire_cb = self._fire

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`, parked or not."""
        return self._parked is not None or (
            self._event is not None and not self._event.cancelled)

    def start(self) -> None:
        """Begin ticking; idempotent when already running (or parked)."""
        if self.running:
            return
        self._event = self.sim.schedule(self.phase + self.period,
                                        self._fire_cb)

    def stop(self) -> None:
        """Stop ticking and forget any resume point; safe to call when
        already stopped."""
        self._parked = None
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def park(self) -> None:
        """Suspend the chain until :meth:`wake`.  For the owner, once
        its work is drained, in the tick's ``fn`` or at the draining
        mutation: cancels the pending next tick and keeps its handle as
        the resume point; a no-op unless a tick is pending."""
        ev = self._event
        if ev is not None and not ev.cancelled:
            self.sim.cancel(ev)
            self._parked = ev
            self._event = None

    def wake(self) -> None:
        """Resume a parked chain at its first tick that has not passed;
        a no-op unless parked.  For the owner, at the mutation that can
        create work for ``fn``."""
        ev = self._parked
        if ev is not None:
            self._parked = None
            self._event = self.sim.resume(ev, self.period)

    def _fire(self) -> None:
        self.fires += 1
        # Re-arm first so fn() may call stop() or park() on the next tick.
        sim = self.sim
        self._event = sim.schedule_at(sim.now + self.period, self._fire_cb)
        self.fn(*self.args)
