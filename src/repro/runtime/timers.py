"""Restartable one-shot and periodic timers over the runtime seam.

Protocol state machines use these instead of raw :meth:`Runtime.schedule`
so that the common patterns — "restart the retransmission timer", "tick the
Order-Assignment task every τ" — are one-liners with correct cancellation
semantics.  They depend only on the :class:`~repro.runtime.api.Runtime`
contract (``schedule``/``cancel`` plus handles with a ``cancelled``
attribute), so the same timer code runs on the discrete-event engine and
on the wall-clock asyncio backend.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.runtime.api import Runtime


class Timer:
    """A one-shot timer that can be started, restarted, and stopped.

    Restarting an armed timer cancels the in-flight event; the callback
    never fires more than once per arm.
    """

    __slots__ = ("sim", "fn", "args", "_event")

    def __init__(self, sim: Runtime, fn: Callable[..., Any], *args: Any):
        self.sim = sim
        self.fn = fn
        self.args = args
        self._event: Optional[Any] = None

    @property
    def armed(self) -> bool:
        """True while a fire is pending."""
        return self._event is not None and not self._event.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` units from now."""
        self.stop()
        self._event = self.sim.schedule(delay, self._fire)

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
    """

    __slots__ = ("sim", "period", "phase", "fn", "args", "_event", "fires")

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
        self.fires: int = 0

    @property
    def running(self) -> bool:
        """True while ticking."""
        return self._event is not None and not self._event.cancelled

    def start(self) -> None:
        """Begin ticking; idempotent when already running."""
        if self.running:
            return
        self._event = self.sim.schedule(self.phase + self.period, self._fire)

    def stop(self) -> None:
        """Stop ticking; safe to call when already stopped."""
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def _fire(self) -> None:
        self.fires += 1
        # Re-arm first so fn() may call stop() to cancel the next tick.
        sim = self.sim
        self._event = sim.schedule_at(sim.now + self.period, self._fire)
        self.fn(*self.args)
