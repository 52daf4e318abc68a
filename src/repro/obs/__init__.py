"""Out-of-band runtime telemetry: profiling, histograms, windowed timelines.

``repro.obs`` watches the simulator without ever being part of it: no
trace emissions, no scheduled events, no RNG draws, and no call from
protocol code.  The contract — checked byte-for-byte by
``tests/test_obs_identity.py`` across shard counts — is that every
canonical trace is identical with observability on or off.  What the
``obs`` section reports is what the engine and the trace bus already
count: engine counters, per-kind trace counts, and two histograms
derived from sampled dispatch and from the ``ordered`` records.

Two pillars:

* :class:`~repro.obs.profiler.DispatchProfiler` — stride-sampling wall
  time attribution per handler/kind in the dispatch loop (the target
  list for the compiled event-loop kernel);
* :class:`~repro.obs.session.ObsSession` — the observer folding
  everything into fixed simulated-time windows; its report is the run
  entry's ``obs`` section (:attr:`repro.experiments.results.RunResult.
  obs`).

Enable with ``--obs`` on ``python -m repro run`` (any backend) or
``sweep``: the section lands in ``--out``'s artifact, and
``python -m repro show ARTIFACT [--top N | --timeline]`` renders it
from there.
"""

from repro.obs.profiler import DEFAULT_STRIDE, DispatchProfiler, render_top
from repro.obs.report import render_summary, render_timeline
from repro.obs.session import (DEFAULT_WINDOWS, PROGRESS_INTERVAL_S,
                               Histogram, ObsSession, diff_counts)

__all__ = [
    "Histogram", "diff_counts",
    "DEFAULT_STRIDE", "DispatchProfiler", "render_top",
    "DEFAULT_WINDOWS", "PROGRESS_INTERVAL_S", "ObsSession",
    "render_summary", "render_timeline",
]
