"""One observability session: profiler + histograms + windowed timeline.

An :class:`ObsSession` is an observer (``attach(trace)`` / ``finish`` /
``detach()``, the contract :func:`repro.experiments.runner.
observed_scenario` carries) that watches a :class:`~repro.sim.engine.
Simulator` **out-of-band**: it finds the engine through the bus
back-reference, installs itself as its dispatch hook (``sim.obs_hook``)
and reads only what the engine and the trace bus already count.
Protocol code never calls it.  It never emits trace records, never
schedules events, and never draws randomness, so a run with a session
attached produces a canonical trace byte-identical to a run without —
the invariant every optimization in this repo is already held to.

Windowed aggregation is *piggybacked on sampled dispatch*, not
timer-driven: every :data:`~repro.obs.profiler.DEFAULT_STRIDE`-th
dispatched event's timestamp is compared against the next window edge,
and crossing an edge folds the since-last-edge deltas (event count,
per-kind trace counts, last sampled heap depth) into one timeline row.
Fixed simulated-time windows (:data:`DEFAULT_WINDOWS` per horizon) make
rows comparable across runs of the same spec regardless of host speed;
edge detection trails the true boundary by at most ``stride - 1``
events (counts themselves stay exact — they are deltas of the engine's
event counter).

:meth:`report` is the run's ``obs`` section
(:attr:`repro.experiments.results.RunResult.obs`): engine counters,
per-kind ``trace_counts``, two ``histograms`` (``engine.heap_depth``
from sampled dispatch, ``ordering.assign_latency_ms`` from the
``ordered`` records), profiler cost centers and the per-window
``timeline`` rows.  ``python -m repro show`` renders it from a
``--out`` artifact.

Histograms are **log-bucketed**: bucket ``b`` holds values in
``[2^(b-1), 2^b)`` (bucket 0 holds zero; negatives go to a dedicated
underflow slot), which keeps a distribution spanning five orders of
magnitude in a handful of integers.  Quantiles are read back from the
bucket upper edges — exact enough to rank cost centers and spot
regressions, never used for protocol logic.
"""

from __future__ import annotations

import math
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.profiler import DEFAULT_STRIDE, DispatchProfiler

#: Default number of timeline windows a run is folded into.
DEFAULT_WINDOWS = 20

#: Wall-clock seconds between ``--progress`` heartbeat lines.
PROGRESS_INTERVAL_S = 2.0


class Histogram:
    """Log-bucketed distribution: bucket ``b`` covers ``[2^(b-1), 2^b)``.

    Negative observations land in a dedicated *underflow* slot rather
    than aliasing into bucket 0 (whose range is ``[0.5, 1)``): a signed
    metric — a clock skew, a budget delta — would otherwise have its
    negative tail counted as sub-1.0 positives and every quantile
    estimate dragged toward 1.0.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets",
                 "underflow")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: Dict[int, int] = {}
        self.underflow = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < 0:
            self.underflow += 1
            return
        # frexp(v) = (m, e) with v = m * 2**e and 0.5 <= |m| < 1, so e
        # is exactly the [2^(e-1), 2^e) bucket index; 0 pools in 0.
        b = math.frexp(value)[1] if value > 0 else 0
        buckets = self.buckets
        buckets[b] = buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper edge of the bucket holding the ``q``-quantile.

        The underflow slot sorts below every log bucket; its upper edge
        is 0.0 (every value in it is negative).
        """
        if not self.count:
            return 0.0
        rank = q * self.count
        seen = self.underflow
        if seen >= rank and seen:
            return 0.0
        for b in sorted(self.buckets):
            seen += self.buckets[b]
            if seen >= rank:
                return float(2 ** b)
        return float(self.max)  # pragma: no cover - defensive

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able summary (bucket keys stringified for stable JSON)."""
        if not self.count:
            return {"count": 0}
        out = {
            "count": self.count,
            "sum": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": round(self.min, 6),
            "max": round(self.max, 6),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {str(b): n for b, n in sorted(self.buckets.items())},
        }
        if self.underflow:
            out["underflow"] = self.underflow
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name} n={self.count} mean={self.mean:.3g}>"


def diff_counts(now: Dict[str, int],
                before: Dict[str, int]) -> Dict[str, int]:
    """Per-window delta of two cumulative count snapshots (zeros elided)."""
    out: Dict[str, int] = {}
    for name, value in now.items():
        d = value - before.get(name, 0)
        if d:
            out[name] = d
    return out


class ObsSession:
    """One observed run, as an observer: ``attach`` installs the engine
    hooks, ``finish`` closes the windows, ``detach`` removes the hooks.

    Parameters
    ----------
    sim:
        Shorthand: ``ObsSession(sim, ...)`` is ``ObsSession(...)`` with
        ``attach(sim.trace)`` called for you.  Left out, the session is
        handed to :func:`~repro.experiments.runner.observed_scenario`
        (or anything that passes observers on to it), which attaches it
        before the build.
    horizon_ms:
        The run's simulated end time (windows and ETA derive from it).
    name:
        Stamped into the report.
    progress:
        Emit a heartbeat line (events done, ev/s, ETA) roughly every
        :data:`PROGRESS_INTERVAL_S` wall seconds, piggybacked on
        sampled dispatches so the un-sampled fast path never reads the
        wall clock.
    """

    def __init__(self, sim=None, *, horizon_ms: float, name: str = "run",
                 progress: bool = False,
                 progress_sink: Optional[TextIO] = None):
        if horizon_ms <= 0:
            raise ValueError(f"horizon_ms must be positive, got {horizon_ms}")
        self.sim = None
        self.name = name
        self.horizon_ms = horizon_ms
        self.window_ms = horizon_ms / DEFAULT_WINDOWS
        self.profiler = DispatchProfiler(DEFAULT_STRIDE)
        self.rows: List[Dict[str, Any]] = []
        self.events_total = 0
        self._stride = self.profiler.stride
        self._countdown = 1  # sample the very first event
        self._last_heap = 0
        self._finished = False
        self.wall_s = 0.0
        # Heap depth from sampled dispatches only; order-assignment
        # latency from every ``ordered`` record.
        self._heap_hist = Histogram("engine.heap_depth")
        self._assign_hist = Histogram("ordering.assign_latency_ms")
        # Progress heartbeat (wall-clock throttled, sampled path only).
        self._progress = progress
        self._progress_sink = progress_sink
        #: Stamped by the first dispatch (always sampled), so ``wall_s``
        #: times the run and not a build the session was attached before.
        self._wall_start: Optional[float] = None
        self._last_beat = 0.0
        if sim is not None:
            self.attach(sim.trace)

    def attach(self, trace) -> "ObsSession":
        """Start observing the engine that owns ``trace``.  Attached
        before the build (the seam's order), window 0 and
        ``trace_counts`` include what the build emitted."""
        sim = trace._sim
        if sim is None:
            raise RuntimeError("trace bus has no runtime back-reference")
        if self.sim is not None:
            raise RuntimeError("session is already attached")
        self.sim = sim
        self._t0 = sim.now
        self._edge = sim.now + self.window_ms
        # Baselines for per-window deltas.
        self._events_at_attach = sim.events_processed
        self._win_mark = sim.events_processed
        self._saved_counting = trace.counting
        self._kinds_at_attach = dict(trace.counts)
        self._kinds_before = dict(trace.counts)
        # The engine consults these two attributes and nothing else;
        # "events by kind" rides the trace bus's counting mode.
        trace.counting = True
        trace.subscribe("ordered", self._on_ordered)
        sim.obs_hook = self
        return self

    def _on_ordered(self, rec) -> None:
        self._assign_hist.observe(rec.time - rec["created_at"])

    # ------------------------------------------------------------------
    # The engine-facing hot path
    # ------------------------------------------------------------------
    def slow_dispatch(self, sim, ev) -> int:
        """Execute one *sampled* event on the engine's behalf.

        The run loops keep the sampling countdown as a *local int* —
        unsampled events never leave the loop, so attaching a session
        adds only a decrement and a truth test to the per-event fast
        path.  Every ``stride``-th dispatch lands here: roll any window
        edges the simulation clock has crossed, time the event for the
        profiler, sample the heap depth, maybe heartbeat.  Returns the
        refreshed countdown; the loop writes it back to ``_countdown``
        on exit so repeated ``run_window`` calls stay in phase.

        Window edges are therefore detected at sample granularity — a
        roll can trail the true boundary by up to ``stride - 1``
        events.  Per-window event counts stay exact regardless (they
        are deltas of the engine's own counter); only the attribution
        of those few boundary events can shift one window earlier.
        """
        if ev.time >= self._edge:
            self._roll(ev.time)
        t0 = perf_counter()
        if self._wall_start is None:
            self._wall_start = self._last_beat = t0
        sim._execute(ev)
        elapsed = perf_counter() - t0
        self.profiler.record(ev.fn, elapsed)
        heap = len(sim._heap)
        self._last_heap = heap
        self._heap_hist.observe(heap)
        if self._progress and t0 + elapsed - self._last_beat \
                >= PROGRESS_INTERVAL_S:
            self._heartbeat(t0 + elapsed)
        return self._stride

    # ------------------------------------------------------------------
    # Window folding
    # ------------------------------------------------------------------
    def _roll(self, t: float) -> None:
        """Close every window whose edge is at or before ``t``."""
        edge = self._edge
        w = self.window_ms
        while t >= edge:
            self._close_window(edge)
            edge += w
        self._edge = edge

    def _close_window(self, t1: float) -> None:
        kinds = self.sim.trace.counts
        # Window event counts come from the engine's own counter (the
        # boundary event is not yet executed when a roll happens, so the
        # delta covers exactly the closing window).
        done = self.sim.events_processed
        win_events = done - self._win_mark
        row: Dict[str, Any] = {
            "w": len(self.rows),
            "t0": round(self._t0, 6),
            "t1": round(t1, 6),
            "events": win_events,
            "heap": self._last_heap,
        }
        kind_delta = diff_counts(kinds, self._kinds_before)
        if kind_delta:
            row["kinds"] = kind_delta
        self.rows.append(row)
        self.events_total += win_events
        self._win_mark = done
        self._t0 = t1
        self._kinds_before = dict(kinds)

    # ------------------------------------------------------------------
    def _heartbeat(self, wall_now: float) -> None:
        self._last_beat = wall_now
        sim = self.sim
        elapsed = wall_now - self._wall_start
        events = sim.events_processed - self._events_at_attach
        rate = events / elapsed if elapsed > 0 else 0.0
        now_ms = sim.now
        eta = ((self.horizon_ms - now_ms) / now_ms * elapsed
               if 0 < now_ms < self.horizon_ms else 0.0)
        sink = self._progress_sink if self._progress_sink is not None \
            else sys.stderr
        print(f"[obs] {self.name}: {events:,} events  {rate:,.0f} ev/s  "
              f"sim {now_ms:,.0f}/{self.horizon_ms:,.0f} ms  "
              f"eta {eta:,.1f}s", file=sink, flush=True)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self, net=None, end_time: Optional[float] = None) -> None:
        """Close trailing windows, then :meth:`detach`.

        Idempotent; takes (and ignores) the observer contract's
        ``net``/``end_time``.  A finished session is pure data.
        """
        if self._finished:
            return
        self._finished = True
        sim = self.sim
        now = sim.now
        # Close every full window the run actually covered, then the
        # trailing partial (if the run ended mid-window).
        while self._edge <= now:
            edge = self._edge
            self._close_window(edge)
            self._edge = edge + self.window_ms
        if now > self._t0 or sim.events_processed > self._win_mark:
            self._close_window(now)
        if self._wall_start is not None:
            self.wall_s = perf_counter() - self._wall_start
        self.detach()

    def detach(self) -> None:
        """Leave the simulator exactly as found (``obs_hook`` cleared,
        the ``ordered`` subscription dropped, trace counting restored).
        Idempotent."""
        sim = self.sim
        if sim.obs_hook is self:
            sim.obs_hook = None
            sim.trace.unsubscribe("ordered", self._on_ordered)
            sim.trace.counting = self._saved_counting

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The run's ``obs`` section (JSON-able), timeline rows included."""
        self.finish()
        sim = self.sim
        return {
            "name": self.name,
            "horizon_ms": self.horizon_ms,
            "window_ms": round(self.window_ms, 6),
            "windows": len(self.rows),
            "events": self.events_total,
            "wall_s": round(self.wall_s, 6),
            "sample_every": self._stride,
            "engine": {
                "events_processed": sim.events_processed,
                "peak_heap": sim.peak_heap,
                "compactions": sim.compactions,
                "pending_end": sim.pending,
            },
            "trace_counts": diff_counts(dict(sim.trace.counts),
                                        self._kinds_at_attach),
            "histograms": {h.name: h.snapshot()
                           for h in (self._heap_hist, self._assign_hist)},
            "profiler": self.profiler.to_dict(),
            "timeline": list(self.rows),
        }


__all__ = ["DEFAULT_STRIDE", "DEFAULT_WINDOWS", "PROGRESS_INTERVAL_S",
           "Histogram", "ObsSession", "diff_counts"]
