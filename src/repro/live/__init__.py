"""Wall-clock asyncio backend: the protocol stack as a runnable service.

The discrete-event engine (:mod:`repro.sim`) is the correctness oracle;
this package binds the exact same protocol code — via the
:class:`~repro.runtime.api.Runtime` seam — to real time:

* :class:`LiveRuntime` — a deadline heap paced to the wall by asyncio
  (``now`` is the executing callback's *scheduled* deadline, so
  periodic work ticks on absolute deadlines and never accumulates
  drift);
* :class:`QueueFabric` / :class:`UdpFabric` — the sim fabric on that
  heap (single-host multi-tier runs) or real UDP sockets on the
  loopback;
* :class:`NetworkBuilder` — BR/AG/AP/MH tiers from an existing
  :class:`~repro.experiments.spec.ExperimentSpec`, with the
  :mod:`repro.validation` monitors attached to the live trace stream;
* :class:`LoadGenerator` — the existing workload fleets driven in wall
  time, with live send/delivery rate accounting;
* :func:`diff_spec` — the sim-vs-live differential harness behind
  ``python -m repro live-diff``.
"""

from repro.live.builder import LiveRun, NetworkBuilder
from repro.live.fabric import QueueFabric, UdpFabric
from repro.live.loadgen import LoadGenerator
from repro.live.runtime import LiveRuntime

__all__ = [
    "LiveRuntime",
    "QueueFabric",
    "UdpFabric",
    "NetworkBuilder",
    "LiveRun",
    "LoadGenerator",
]
