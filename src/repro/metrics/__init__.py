"""Measurement layer: collectors, the order checker, and report tables.

Collectors subscribe to the simulator's trace bus, so they work
identically against RingNet and every baseline (all protocols emit the
same ``mh.deliver`` / ``source.send`` / buffer trace vocabulary).
"""

from repro.metrics.collectors import (
    BufferSampler,
    InterruptionCollector,
    LatencyCollector,
    ReliabilityCollector,
    ThroughputCollector,
)
from repro.metrics.order_checker import OrderChecker
from repro.metrics.report import format_table, percentile

__all__ = [
    "LatencyCollector",
    "ThroughputCollector",
    "BufferSampler",
    "InterruptionCollector",
    "ReliabilityCollector",
    "OrderChecker",
    "format_table",
    "percentile",
]
