"""The :class:`Runtime` interface — what protocol code may assume.

A runtime is a clock plus a scheduler plus the deterministic services
the protocol stack consumes (random streams, the trace bus, ownership
sections).  The contract is intentionally small; everything in
``repro.net`` and ``repro.core`` is written against it and must work
unchanged on any implementation:

``now``
    Current time in milliseconds, a plain attribute on both backends:
    the deadline of the executing callback, the last executed deadline
    between callbacks, the horizon after a run that reached it.  Only
    moves forward, with two live exceptions: ``LiveRuntime.run_inline``
    (input a socket service received) runs at the wall instant of the
    input, which may be ahead of the heap's next deadline, and restores
    ``now`` afterwards; and a ``schedule_at`` into the past, which the
    sim refuses, runs late.  The live wall clock is ``wall_now()``.
``schedule(delay, fn, *args, owner=...)`` / ``schedule_at`` / ``cancel``
    One-shot callbacks.  The returned handle exposes a ``cancelled``
    attribute (True once cancelled *or* refused by a shard gate), which
    is all the timers inspect.  ``cancel`` is idempotent and a no-op on
    handles that already fired.
``resume(handle, period)``
    Re-queue a *parked* periodic chain (:meth:`PeriodicTimer.park` /
    ``wake``).  ``handle`` is the cancelled handle of the chain's next
    tick; the chain re-enters at its first tick that has not yet
    passed, stepping ``period`` at a time from ``handle.time`` — the
    float arithmetic firing each skipped tick would have done, so ticks
    stay on the grid ``start + k·period``.  The sim engine guarantees
    more: the resumed tick carries the ``(time, causal key)`` it would
    have had unparked (each skipped tick advances the key as its re-arm
    would), and a tick has *passed* when ``(time, key) <= (now, key of
    the executing event)`` — so a wake at exactly a grid instant
    leaves the tick where polling had it, before or after the waker,
    and a parked run is byte-identical to a polling one.  The live
    backend orders by time alone: a tick due exactly ``now`` counts as
    passed and the chain resumes at the next grid instant.
``rng(name)``
    The named deterministic random stream (``random()``,
    ``exponential()``, ``integers()`` — see
    :class:`repro.sim.rand.RandomStreams`).  Same seed + same per-stream
    draw sequence on every backend, which is what makes the sim-vs-live
    differential harness meaningful.
``streams``
    The :class:`~repro.sim.rand.RandomStreams` behind ``rng``.  Code
    whose stream draws nothing but ``random()`` (link loss and jitter,
    the Gilbert–Elliott chains) reads it through
    ``streams.uniform(name)`` instead: the same doubles, drawn a block
    at a time, and the reader's ``random`` is a C callable (a draw runs
    no python frame; only a block refill does), so a hot path keeps the
    bound ``random`` itself; a name is served by one accessor only.
``trace``
    The :class:`repro.sim.trace.TraceBus`; emit with
    ``rt.trace.emit(now, kind, **fields)``.  Monitors subscribe to it —
    identically for recorded sim traces and streaming live traces.
``call_owned(owner, fn, *args)`` / ``current_owner``
    Ownership sections at the control→entity boundary.  On the sim
    backend these drive causal-key derivation and shard gating; a live
    runtime only tracks the owner label.

Implementations also carry ``gate``/``shard``/``obs_hook``/``spans``
attributes (default ``None``); instrumented code null-checks them, so a
backend that never sets them pays nothing.  Three objects install the
four: a shard worker's ``ShardContext`` is ``shard`` and its
``is_local`` the ``gate`` (set by hand, because ownership must be in
place before the build); ``ObsSession.attach`` sets ``obs_hook`` and
``SpanCollector.attach`` sets ``spans``, both as observers handed to
:func:`repro.experiments.runner.observed_scenario`, whose ``detach()``
clears them again.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.trace import TraceBus

#: Sentinel: "inherit the scheduling context's owner".  Shared by every
#: backend so ``owner=_INHERIT`` means the same thing everywhere.
_INHERIT = object()


class Runtime:
    """Abstract base for scheduler backends.

    Subclasses must set :attr:`now`, :attr:`seed`, and :attr:`trace`,
    and implement the scheduling and context methods below.  The base
    class deliberately has no ``__init__``: each backend initializes
    its state inline, on its own hot path.
    """

    #: Current time (ms).  Subclass state.
    now: float
    #: Master seed for the deterministic random streams.
    seed: int
    #: The named random streams (:class:`repro.sim.rand.RandomStreams`).
    streams: Any
    #: The structured trace bus.
    trace: TraceBus

    # Optional cross-cutting hooks; protocol code null-checks these.
    gate: Optional[Callable[[Any], bool]] = None
    shard = None
    obs_hook = None
    #: Out-of-band span sink (:class:`repro.obs.spans.SpanCollector`);
    #: the transport layer calls ``spans.seg_send/seg_recv/give_up``
    #: when set.  A run without one executes zero span code beyond
    #: this null check.
    spans = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 owner: Any = _INHERIT):
        """Schedule ``fn(*args)`` to run ``delay`` ms from now.

        Returns a cancellable handle with a ``cancelled`` attribute.
        """
        raise NotImplementedError

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    owner: Any = _INHERIT):
        """Schedule ``fn(*args)`` at an absolute time (ms)."""
        raise NotImplementedError

    def cancel(self, handle) -> None:
        """Cancel a pending handle (no-op if it already fired)."""
        raise NotImplementedError

    def resume(self, handle, period: float):
        """Re-queue the parked periodic chain whose next tick was the
        (cancelled) ``handle`` at its first tick not yet passed; returns
        the new handle.  See the module docstring for the tie rule."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Deterministic services
    # ------------------------------------------------------------------
    def rng(self, name: str):
        """Return the named deterministic random stream."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Ownership contexts
    # ------------------------------------------------------------------
    def call_owned(self, owner: Any, fn: Callable[..., Any], *args: Any):
        """Run ``fn(*args)`` in a sub-context owned by ``owner``."""
        raise NotImplementedError

    @property
    def current_owner(self) -> Optional[str]:
        """Owner of the currently executing context (None = control)."""
        raise NotImplementedError
