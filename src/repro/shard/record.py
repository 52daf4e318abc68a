"""Keyed per-shard trace streams and their deterministic merge.

A :class:`KeyedRecorder` captures the same canonical JSONL lines a
:class:`~repro.validation.record.TraceRecorder` would, but stamps each
with its **merge key** ``(time, root event key, *owned-section path,
emission index)`` — the total order in which the sequential engine
would have emitted it.  Because every component of the key is
decomposition-invariant (see :mod:`repro.sim.engine`), K sorted
per-shard streams merge into exactly the sequential stream, byte for
byte.  That merge is the determinism proof the acceptance tests run.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, Optional, Tuple

from repro.sim.trace import TraceBus, TraceRecord, record_to_line

MergeKey = Tuple
Entry = Tuple[MergeKey, str]


class KeyedRecorder:
    """Record every emission on a bus together with its merge key.

    Exactly one keyed recorder may observe a bus: the emission-index
    counter ticks once per recorded emission, and a second consumer
    would double-tick it.
    """

    def __init__(self) -> None:
        self.entries: List[Entry] = []
        self._trace: Optional[TraceBus] = None

    def attach(self, trace: TraceBus) -> "KeyedRecorder":
        if trace._sim is None:
            raise RuntimeError("bus is not attached to a simulator")
        self._trace = trace
        self._sim = trace._sim
        trace.subscribe(None, self._on_record)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(None, self._on_record)
            self._trace = None

    def _on_record(self, rec: TraceRecord) -> None:
        key = (rec.time,) + self._sim.emission_key()
        self.entries.append((key, record_to_line(rec)))

    @property
    def lines(self) -> List[str]:
        """The canonical lines in merge-key order (local emission order
        already *is* merge-key order — asserted by the runtime tests)."""
        return [line for _, line in self.entries]


def merge_streams(streams: Iterable[List[Entry]]) -> List[str]:
    """Merge K per-shard keyed streams into the canonical global stream.

    Each stream arrives sorted (a shard emits in execution order, and
    execution order is merge-key order), so this is a straight k-way
    heap merge.
    """
    merged = heapq.merge(*streams, key=lambda entry: entry[0])
    return [line for _, line in merged]
