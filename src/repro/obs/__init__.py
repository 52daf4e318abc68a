"""Out-of-band runtime telemetry: metrics, profiling, windowed timelines.

``repro.obs`` watches the simulator without ever being part of it: no
trace emissions, no scheduled events, no RNG draws.  The contract —
checked byte-for-byte by ``tests/test_obs_identity.py`` across shard
counts — is that every canonical trace is identical with observability
on or off, and that a run with it off executes **zero** registry
callbacks.

Three pillars:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges, and
  log-bucketed histograms, fed by null-checked call sites in the
  engine, transport, ordering, and shard runtime;
* :class:`~repro.obs.profiler.DispatchProfiler` — stride-sampling wall
  time attribution per handler/kind in the dispatch loop (the target
  list for the compiled event-loop kernel);
* :class:`~repro.obs.session.ObsSession` — the observer folding
  everything into fixed simulated-time windows; its report is the run
  entry's ``obs`` section (:attr:`repro.experiments.results.RunResult.
  obs`).

Enable with ``--obs`` on ``python -m repro run`` (any backend) or
``sweep``: the section lands in ``--out``'s artifact, and
``python -m repro summarize | top | timeline`` render it from there.
"""

from repro.obs.profiler import DEFAULT_STRIDE, DispatchProfiler, render_top
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry,
                                diff_counts, merge_counter_dicts)
from repro.obs.report import render_summary, render_timeline
from repro.obs.session import DEFAULT_WINDOWS, PROGRESS_INTERVAL_S, ObsSession

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "diff_counts", "merge_counter_dicts",
    "DEFAULT_STRIDE", "DispatchProfiler", "render_top",
    "DEFAULT_WINDOWS", "PROGRESS_INTERVAL_S", "ObsSession",
    "render_summary", "render_timeline",
]
