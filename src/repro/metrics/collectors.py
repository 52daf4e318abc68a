"""Trace-bus collectors for the quantities the experiments report.

Memory model: per-entity state is *aggregated*, not per-delivery.  At
the million-endpoint scale a per-MH list of delivery timestamps or
latency samples dominates the heap, so :class:`ThroughputCollector`
buckets events into integer counts per window — O(windows), not
O(messages).  The one unbounded structure is the latency collector's
global ``samples`` list, kept so the summary percentiles stay exact (it
is the reporting artifact itself, and grows with total traffic, not
with population size); a harvested delivery costs it one append.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Tuple

from repro.metrics.report import summarize
from repro.net.address import NodeId
from repro.runtime.api import Runtime
from repro.runtime.timers import PeriodicTimer
from repro.sim.trace import TraceBus, TraceRecord


class LatencyCollector:
    """End-to-end delivery latency: source send → MH app delivery.

    Subscribes to ``mh.deliver`` (which carries ``latency``) and keeps
    the exact global sample list the percentile summary reads.
    """

    def __init__(self, trace: TraceBus, warmup: float = 0.0):
        self.warmup = warmup
        self.samples: List[float] = []
        trace.subscribe("mh.deliver", self._on_deliver)

    def _on_deliver(self, rec: TraceRecord) -> None:
        if rec.time >= self.warmup:
            self.samples.append(rec["latency"])

    def summary(self) -> Dict[str, float]:
        """mean/p50/p95/p99/max over all deliveries after warmup."""
        return summarize(self.samples)

    @property
    def count(self) -> int:
        return len(self.samples)


class ThroughputCollector:
    """Send and delivery rates over a measurement window.

    * ``sent_rate(t0, t1)`` — source messages per second (aggregate).
    * ``goodput(t0, t1)`` — per-MH average app deliveries per second;
      for the Theorem 5.1 check this should match the aggregate source
      rate ``s·λ`` when ordering keeps up.

    Events are bucketed into integer counts per ``window_ms`` window at
    record time, so per-MH state is O(windows) rather than one float per
    delivery.  Rates over ``[t0, t1)`` count the windows whose *start*
    falls in the interval — exact whenever ``t0``/``t1`` are multiples
    of ``window_ms`` (every measurement interval in the experiments is),
    off by at most one boundary window otherwise.
    """

    def __init__(self, trace: TraceBus, window_ms: float = 100.0):
        if window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {window_ms}")
        self.window_ms = window_ms
        self.sends: Dict[int, int] = defaultdict(int)
        self.deliveries: Dict[NodeId, Dict[int, int]] = defaultdict(
            lambda: defaultdict(int))
        trace.subscribe("source.send", self._on_send)
        trace.subscribe("mh.deliver", self._on_deliver)

    def _on_send(self, rec: TraceRecord) -> None:
        self.sends[int(rec.time // self.window_ms)] += 1

    def _on_deliver(self, rec: TraceRecord) -> None:
        self.deliveries[rec["mh"]][int(rec.time // self.window_ms)] += 1

    def _rate(self, windows: Dict[int, int], t0: float, t1: float) -> float:
        span_s = (t1 - t0) / 1000.0
        if span_s <= 0:
            return 0.0
        n = sum(c for w, c in windows.items()
                if t0 <= w * self.window_ms < t1)
        return n / span_s

    def sent_rate(self, t0: float, t1: float) -> float:
        """Aggregate source rate (msg/s) in [t0, t1)."""
        return self._rate(self.sends, t0, t1)

    def goodput(self, t0: float, t1: float) -> float:
        """Mean per-MH delivery rate (msg/s) in [t0, t1)."""
        if not self.deliveries:
            return 0.0
        rates = [self._rate(ws, t0, t1) for ws in self.deliveries.values()]
        return sum(rates) / len(rates)

    def min_goodput(self, t0: float, t1: float) -> float:
        """Slowest MH's delivery rate (msg/s) in [t0, t1)."""
        if not self.deliveries:
            return 0.0
        return min(self._rate(ws, t0, t1) for ws in self.deliveries.values())


class BufferSampler:
    """Periodic occupancy sampling of protocol buffers (E3).

    ``probe`` is called every ``period`` and must return a list of
    ``{"node": ..., "wq": int, "mq": int, ...}`` dicts
    (``RingNet.buffer_reports`` has this shape).  Peaks are tracked both
    per node and globally.
    """

    def __init__(self, sim: Runtime, probe: Callable[[], List[dict]],
                 period: float = 20.0, warmup: float = 0.0):
        self.sim = sim
        self.probe = probe
        self.warmup = warmup
        self.peak_wq: Dict[NodeId, int] = defaultdict(int)
        self.peak_mq: Dict[NodeId, int] = defaultdict(int)
        self.series: List[Tuple[float, int, int]] = []  # (t, tot wq, tot mq)
        self._timer = PeriodicTimer(sim, period, self._sample)

    def start(self) -> None:
        """Begin sampling."""
        self._timer.start()

    def stop(self) -> None:
        """Stop sampling."""
        self._timer.stop()

    def _sample(self) -> None:
        if self.sim.now < self.warmup:
            return
        reports = self.probe()
        tot_wq = tot_mq = 0
        for r in reports:
            node = r["node"]
            wq, mq = r["wq"], r["mq"]
            tot_wq += wq
            tot_mq += mq
            if wq > self.peak_wq[node]:
                self.peak_wq[node] = wq
            if mq > self.peak_mq[node]:
                self.peak_mq[node] = mq
        self.series.append((self.sim.now, tot_wq, tot_mq))

    def max_wq(self) -> int:
        """Largest per-node WQ occupancy observed."""
        return max(self.peak_wq.values(), default=0)

    def max_mq(self) -> int:
        """Largest per-node MQ occupancy observed."""
        return max(self.peak_mq.values(), default=0)


class InterruptionCollector:
    """Post-handoff service interruption (E7).

    For each ``mh.handoff`` record, the interruption is the gap between
    the handoff instant and that MH's next ``mh.deliver``.  MHs that
    never deliver again before the run ends contribute ``inf``-free
    censored entries counted separately.
    """

    def __init__(self, trace: TraceBus):
        self._pending: Dict[NodeId, float] = {}
        self.interruptions: List[float] = []
        self.censored = 0
        trace.subscribe("mh.handoff", self._on_handoff)
        trace.subscribe("mh.deliver", self._on_deliver)

    def _on_handoff(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        if mh in self._pending:
            self.censored += 1  # handed off again before any delivery
        self._pending[mh] = rec.time

    def _on_deliver(self, rec: TraceRecord) -> None:
        mh = rec["mh"]
        t0 = self._pending.pop(mh, None)
        if t0 is not None:
            self.interruptions.append(rec.time - t0)

    def summary(self) -> Dict[str, float]:
        """Interruption distribution (ms)."""
        return summarize(self.interruptions)


class ReliabilityCollector:
    """Delivery ratio and loss accounting (E10).

    Counts app deliveries and loss tombstones per MH; the delivery ratio
    for an MH is delivered / (delivered + tombstoned).
    """

    def __init__(self, trace: TraceBus):
        self.delivered: Dict[NodeId, int] = defaultdict(int)
        self.tombstoned: Dict[NodeId, int] = defaultdict(int)
        trace.subscribe("mh.deliver", self._on_deliver)
        trace.subscribe("mh.tombstone", self._on_tombstone)

    def _on_deliver(self, rec: TraceRecord) -> None:
        self.delivered[rec["mh"]] += 1

    def _on_tombstone(self, rec: TraceRecord) -> None:
        self.tombstoned[rec["mh"]] += 1

    def delivery_ratio(self) -> float:
        """Aggregate delivered / (delivered + tombstoned)."""
        d = sum(self.delivered.values())
        t = sum(self.tombstoned.values())
        return d / (d + t) if (d + t) else 1.0

    def worst_mh_ratio(self) -> float:
        """The worst per-MH delivery ratio."""
        ratios = []
        for mh in set(self.delivered) | set(self.tombstoned):
            d, t = self.delivered[mh], self.tombstoned[mh]
            ratios.append(d / (d + t) if (d + t) else 1.0)
        return min(ratios, default=1.0)
