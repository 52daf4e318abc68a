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
  everything into fixed simulated-time windows and writing
  ``OBS_<name>.json`` + ``OBS_<name>_timeline.jsonl.gz``.

Enable with ``--obs [DIR]`` on ``python -m repro run`` (any backend) or
``sweep``; read artifacts back with ``python -m repro summarize | top |
timeline``.
"""

from repro.obs.profiler import DEFAULT_STRIDE, DispatchProfiler, render_top
from repro.obs.registry import (Counter, Gauge, Histogram, MetricsRegistry,
                                diff_counts, merge_counter_dicts)
from repro.obs.report import (load_report, load_timeline, render_summary,
                              render_timeline)
from repro.obs.session import (DEFAULT_WINDOWS, OBS_SCHEMA,
                               PROGRESS_INTERVAL_S, ObsSession,
                               write_artifacts)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "diff_counts", "merge_counter_dicts",
    "DEFAULT_STRIDE", "DispatchProfiler", "render_top",
    "DEFAULT_WINDOWS", "OBS_SCHEMA", "PROGRESS_INTERVAL_S", "ObsSession",
    "write_artifacts",
    "load_report", "load_timeline", "render_summary", "render_timeline",
]
