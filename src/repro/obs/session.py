"""One observability session: registry + profiler + windowed timeline.

An :class:`ObsSession` is an observer (``attach(trace)`` / ``finish`` /
``detach()``, the contract :func:`repro.experiments.runner.
observed_scenario` carries) that watches a :class:`~repro.sim.engine.
Simulator` **out-of-band**: it finds the engine through the bus
back-reference, installs itself as its dispatch hook (``sim.obs_hook``)
and exposes its :class:`~repro.obs.registry.MetricsRegistry` as
``sim.obs``, which instrumented protocol code null-checks before
touching.  It never emits trace records, never
schedules events, and never draws randomness, so a run with a session
attached produces a canonical trace byte-identical to a run without —
the invariant every optimization in this repo is already held to.

Windowed aggregation is *piggybacked on sampled dispatch*, not
timer-driven: every ``stride``-th dispatched event's timestamp is
compared against the next window edge, and crossing an edge folds the
since-last-edge deltas (event count, per-kind trace counts, registry
counter deltas, last sampled heap depth) into one timeline row.  Fixed
simulated-time windows make rows comparable across runs of the same
spec regardless of host speed; edge detection trails the true boundary
by at most ``stride - 1`` events (counts themselves stay exact — they
are deltas of the engine's event counter).

Artifacts: :meth:`write` produces ``OBS_<name>.json`` — the final
machine-readable run report (registry snapshot, profiler cost centers,
engine counters) — plus ``OBS_<name>_timeline.jsonl.gz``, the
compressed per-window timeline.  ``python -m repro summarize | top |
timeline`` render both.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
from time import perf_counter
from typing import Any, Dict, List, Optional, TextIO

from repro.obs.profiler import DEFAULT_STRIDE, DispatchProfiler
from repro.obs.registry import MetricsRegistry, diff_counts

#: Schema tag written into every run report, bumped on breaking changes.
OBS_SCHEMA = "repro.obs/v1"

#: Default number of timeline windows a run is folded into.
DEFAULT_WINDOWS = 20

#: Wall-clock seconds between ``--progress`` heartbeat lines.
PROGRESS_INTERVAL_S = 2.0


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
        Stamped into the report and artifact filenames.
    window_ms:
        Timeline window width; defaults to ``horizon_ms / 20``.
    stride:
        Profiler sampling stride (1 = time every event; default
        :data:`~repro.obs.profiler.DEFAULT_STRIDE`), stamped into the
        report as ``sample_every``.
    progress:
        Emit a heartbeat line (events done, ev/s, ETA) roughly every
        :data:`PROGRESS_INTERVAL_S` wall seconds, piggybacked on
        sampled dispatches so the un-sampled fast path never reads the
        wall clock.
    """

    def __init__(self, sim=None, *, horizon_ms: float, name: str = "run",
                 window_ms: Optional[float] = None,
                 stride: int = DEFAULT_STRIDE,
                 progress: bool = False,
                 progress_sink: Optional[TextIO] = None):
        if horizon_ms <= 0:
            raise ValueError(f"horizon_ms must be positive, got {horizon_ms}")
        if window_ms is not None and window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.sim = None
        self.name = name
        self.horizon_ms = horizon_ms
        self.window_ms = window_ms if window_ms is not None \
            else horizon_ms / DEFAULT_WINDOWS
        self.registry = MetricsRegistry()
        self.profiler = DispatchProfiler(stride)
        self.rows: List[Dict[str, Any]] = []
        self.events_total = 0
        self._stride = self.profiler.stride
        self._countdown = 1  # sample the very first event
        self._last_heap = 0
        self._finished = False
        self.wall_s = 0.0
        # Heap-depth distribution fed from sampled dispatches only.
        self._heap_hist = self.registry.hist("engine.heap_depth")
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
        self._counters_before = self.registry.counter_values()
        self._events_at_attach = sim.events_processed
        self._win_mark = sim.events_processed
        self._saved_counting = trace.counting
        self._kinds_at_attach = dict(trace.counts)
        self._kinds_before = dict(trace.counts)
        # The engine consults these two attributes and nothing else;
        # "events by kind" rides the trace bus's counting mode.
        trace.counting = True
        sim.obs = self.registry
        sim.obs_hook = self
        return self

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
        counters = self.registry.counter_values()
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
        counter_delta = diff_counts(counters, self._counters_before)
        if counter_delta:
            row["counters"] = counter_delta
        if self.registry.gauges:
            row["gauges"] = {n: g.value
                            for n, g in self.registry.gauges.items()}
        self.rows.append(row)
        self.events_total += win_events
        self._win_mark = done
        self._t0 = t1
        self._counters_before = counters
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
        """Leave the simulator exactly as found (``obs``/``obs_hook``
        cleared, trace counting restored).  Idempotent."""
        sim = self.sim
        if sim.obs is self.registry:
            sim.obs = None
            sim.trace.counting = self._saved_counting
        if sim.obs_hook is self:
            sim.obs_hook = None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> Dict[str, Any]:
        """The machine-readable run report (JSON-able)."""
        self.finish()
        sim = self.sim
        return {
            "schema": OBS_SCHEMA,
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
            "registry": self.registry.snapshot(),
            "profiler": self.profiler.to_dict(),
        }

    def write(self, out_dir: str = ".",
              name: Optional[str] = None) -> Dict[str, str]:
        """Write ``OBS_<name>.json`` + timeline; returns the paths."""
        return write_artifacts(self.report(), self.rows, out_dir=out_dir,
                               name=name if name is not None else self.name)


def write_artifacts(report: Dict[str, Any], rows: List[Dict[str, Any]],
                    out_dir: str = ".", name: str = "run") -> Dict[str, str]:
    """Write one run report + timeline pair; returns the paths.

    The one place ``OBS_*`` files are written: :meth:`ObsSession.write`
    for a session, the ``run`` command for the pairs a sharded or live
    run assembled.
    """
    safe = name.replace("/", "_").replace(" ", "_")
    os.makedirs(out_dir, exist_ok=True)
    timeline = os.path.join(out_dir, f"OBS_{safe}_timeline.jsonl.gz")
    with gzip.open(timeline, "wt", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True,
                                separators=(",", ":")) + "\n")
    report = dict(report)
    report["timeline"] = os.path.basename(timeline)
    path = os.path.join(out_dir, f"OBS_{safe}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"report": path, "timeline": timeline}


__all__ = ["OBS_SCHEMA", "DEFAULT_WINDOWS", "PROGRESS_INTERVAL_S",
           "ObsSession", "write_artifacts"]
