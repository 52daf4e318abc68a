"""The metrics registry: counters, gauges, log-bucketed histograms.

Strictly **out-of-band**: nothing in this module ever touches the trace
bus, the random streams, or the event heap, so attaching (or not
attaching) a registry cannot move a single simulated event — the
trace-identity suite (`tests/test_obs_identity.py`) holds the subsystem
to that byte for byte.

Cost model
----------
Instrumented call sites in protocol code follow one idiom::

    obs = self.sim.obs           # None unless an ObsSession attached
    if obs is not None:
        obs.inc("transport.retransmitted")

so a run with observability disabled executes **zero** registry
callbacks — the property test in ``tests/test_obs_identity.py`` patches
every registry entry point and counts.  When enabled, the convenience
methods (:meth:`MetricsRegistry.inc` & co.) cost one dict lookup plus
one attribute update; hot loops that observe per message hoist the
instrument object itself (``hist = obs.hist(...)``) outside the loop.

Histograms are **log-bucketed**: bucket ``b`` holds values in
``[2^(b-1), 2^b)`` (bucket 0 holds zero; negatives go to a dedicated
underflow slot), which keeps a
latency distribution spanning five orders of magnitude in a handful of
integers and makes per-window snapshots cheap to fold and serialize.
Quantiles are read back from the bucket upper edges — exact enough to
rank cost centers and spot regressions, never used for protocol logic.
"""

from __future__ import annotations

import math
from typing import Any, Dict


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value; tracks the maximum it ever held."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def update_max(self, value: float) -> None:
        """Record ``value`` only if it is a new maximum (cheap peaks)."""
        if value > self.max:
            self.max = value
            self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} max={self.max}>"


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


class MetricsRegistry:
    """Named instruments, created on first use.

    The registry is what :attr:`repro.sim.engine.Simulator.obs` holds
    when an :class:`~repro.obs.session.ObsSession` is attached;
    instrumented protocol code only ever reaches it through that
    attribute, so a ``None`` there means not one line in this class
    runs.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.hists: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument accessors (create on first use)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        return g

    def hist(self, name: str) -> Histogram:
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram(name)
        return h

    # ------------------------------------------------------------------
    # One-call conveniences (the instrumented-code idiom).  These are
    # protocol-hot-path code: the instrument accessors are inlined so an
    # enabled-run inc costs one dict probe and one attribute add, not
    # two nested method calls.
    # ------------------------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter(name)
        c.value += n

    def set_gauge(self, name: str, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        g.value = value
        if value > g.max:
            g.max = value

    def gauge_max(self, name: str, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        if value > g.max:
            g.max = value
            g.value = value

    def observe(self, name: str, value: float) -> None:
        h = self.hists.get(name)
        if h is None:
            h = self.hists[name] = Histogram(name)
        h.observe(value)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def counter_values(self) -> Dict[str, int]:
        """Current cumulative counter values (window folds diff these)."""
        return {name: c.value for name, c in self.counters.items()}

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-able registry state for the run's ``obs`` section."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: {"value": g.value, "max": g.max}
                       for n, g in sorted(self.gauges.items())},
            "histograms": {n: h.snapshot()
                           for n, h in sorted(self.hists.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<MetricsRegistry counters={len(self.counters)} "
                f"gauges={len(self.gauges)} hists={len(self.hists)}>")


def merge_counter_dicts(dicts) -> Dict[str, int]:
    """Sum plain ``{name: value}`` counter dicts (per-shard roll-up)."""
    out: Dict[str, int] = {}
    for d in dicts:
        for name, value in d.items():
            out[name] = out.get(name, 0) + value
    return out


def diff_counts(now: Dict[str, int],
                before: Dict[str, int]) -> Dict[str, int]:
    """Per-window delta of two cumulative count snapshots (zeros elided)."""
    out: Dict[str, int] = {}
    for name, value in now.items():
        d = value - before.get(name, 0)
        if d:
            out[name] = d
    return out


__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "merge_counter_dicts", "diff_counts"]
