"""Deterministic trace record / replay / diff.

A run's :class:`~repro.sim.trace.TraceRecord` stream serializes to
JSONL — one canonical, sorted-key JSON object per record — so that

* two runs of the same :class:`~repro.experiments.spec.ExperimentSpec`
  and seed produce **byte-identical** streams (seed-determinism becomes
  a checked property, not an assumption);
* a recorded stream replays offline through any monitor set
  (:func:`replay`), turning a captured failure into a repeatable unit
  test;
* two streams diff to the **first divergence**
  (:func:`first_divergence`), pinpointing where a refactor changed
  behaviour.

Canonical form: attribute tuples serialize as JSON arrays and load back
as tuples (the trace vocabulary uses tuples — e.g. ``token_id`` — and
never semantically distinguishes list from tuple), keys sort, floats use
``repr`` round-tripping via the stdlib ``json`` module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Union

from repro.experiments.runner import observed_scenario
# The canonical (de)serialization lives beside the bus in
# ``repro.sim.trace`` (shared with the streaming sink and the shard
# merge); re-exported here because this module is its historical home.
from repro.sim.trace import (StreamingTraceSink, TraceBus, TraceRecord,
                             _canonical, line_to_record, parse_lines,
                             read_trace_lines, record_to_line)


# ----------------------------------------------------------------------
# Online recorder
# ----------------------------------------------------------------------
class TraceRecorder:
    """Subscribe to every record on a bus and keep the canonical lines.

    Use as a context manager (detaches on exit), or via
    :meth:`attach` / :meth:`detach` directly::

        with TraceRecorder(sim.trace) as rec:
            scenario.run()
        rec.to_jsonl()

    To write a file, stream it: :class:`~repro.sim.trace.StreamingTraceSink`.
    """

    def __init__(self, trace: Optional[TraceBus] = None):
        self.lines: List[str] = []
        self.count = 0
        self._trace: Optional[TraceBus] = None
        if trace is not None:
            self.attach(trace)

    def attach(self, trace: TraceBus) -> "TraceRecorder":
        if self._trace is not None:
            raise RuntimeError("recorder is already attached")
        self._trace = trace
        trace.subscribe(None, self._on_record)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(None, self._on_record)
            self._trace = None

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()

    def _on_record(self, rec: TraceRecord) -> None:
        self.lines.append(record_to_line(rec))
        self.count += 1

    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """The full stream as one string (trailing newline included)."""
        return "".join(line + "\n" for line in self.lines)


# ----------------------------------------------------------------------
# File I/O and replay
# ----------------------------------------------------------------------
def read_jsonl(path: str) -> List[TraceRecord]:
    """Load a recorded stream back into memory (gzip transparent)."""
    return parse_lines(path, line_to_record, "trace record")


def replay(records: Sequence[TraceRecord], monitors: Iterable,
           finish: bool = True) -> TraceBus:
    """Re-emit a recorded stream through ``monitors`` offline.

    ``monitors`` is any iterable of :class:`~repro.validation.monitor.
    Monitor` (a :class:`~repro.validation.monitor.MonitorSuite` works).
    End-of-run checks run with ``net=None`` — state-dependent checks
    skip themselves — and ``end_time`` set to the last record's time.
    Monitors are detached before returning.
    """
    bus = TraceBus()
    attached = [m.attach(bus) for m in monitors]
    try:
        for rec in records:
            bus.emit(rec.time, rec.kind, **rec.attrs)
        if finish:
            end = records[-1].time if records else 0.0
            for m in attached:
                m.finish(net=None, end_time=end)
    finally:
        for m in attached:
            m.detach()
    return bus


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """Where two trace streams first disagree."""

    index: int
    left: Optional[str]
    right: Optional[str]

    def describe(self) -> str:
        if self.left is None:
            return (f"record {self.index}: left stream ended, right "
                    f"continues with {self.right}")
        if self.right is None:
            return (f"record {self.index}: right stream ended, left "
                    f"continues with {self.left}")
        return (f"record {self.index}:\n  left:  {self.left}\n"
                f"  right: {self.right}")


def first_divergence(
    left: Sequence[Union[TraceRecord, str]],
    right: Sequence[Union[TraceRecord, str]],
) -> Optional[Divergence]:
    """First index where two streams differ, or None when identical.

    Accepts records or pre-serialized lines; comparison is on the
    canonical line form either way.
    """
    def as_line(item: Union[TraceRecord, str]) -> str:
        return item if isinstance(item, str) else record_to_line(item)

    for i in range(max(len(left), len(right))):
        a = as_line(left[i]) if i < len(left) else None
        b = as_line(right[i]) if i < len(right) else None
        if a != b:
            return Divergence(index=i, left=a, right=b)
    return None


# ----------------------------------------------------------------------
# Convenience: record a spec's full run
# ----------------------------------------------------------------------
def record_spec(spec, stream_path: Optional[str] = None,
                window: int = 4096):
    """Build and run ``spec``, recording the complete trace stream.

    Uses :func:`~repro.experiments.runner.observed_scenario`, so the
    recorder attaches before construction and build-time records
    (initial MH joins) are part of the stream.

    With the default ``stream_path=None`` the whole stream is held in
    memory: returns the detached :class:`TraceRecorder` (``.lines`` /
    ``.to_jsonl()``).  Given a path, the stream is instead written
    incrementally through a :class:`~repro.sim.trace.StreamingTraceSink`
    (``.gz`` compressed when the path says so) and the closed sink is
    returned — read the lines back with
    :func:`~repro.sim.trace.read_trace_lines`.  Both paths serialize
    through :func:`record_to_line`, so the bytes are identical.
    """
    if stream_path is None:
        recorder = TraceRecorder()
    else:
        recorder = StreamingTraceSink(stream_path, window=window)
    try:
        with observed_scenario(spec, recorder) as scenario:
            scenario.run()
    finally:
        if stream_path is not None:
            recorder.close()
    return recorder
