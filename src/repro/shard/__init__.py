"""repro.shard — space-parallel simulation with deterministic sync.

Partitions a built RingNet topology into K shards
(:func:`~repro.shard.partition.partition_hierarchy`: LPT over
BR-subtree units, split one ring level down when lopsided, each MH
riding with its initial AP for the whole run), runs one event loop per
worker process, and synchronizes conservatively in lock-step rounds:
every round, every shard runs to the same grant, computed from one
scalar lookahead (the smallest cut latency, capped by the wireless
latency).  The merge order ``(time, causal key, emission index)``
makes a K-shard run produce **byte-identical** canonical traces to the
sequential engine; ``shards=1`` is the exact sequential engine path.
The backend is a decomposition-invariance oracle, not a speedup.

Public API::

    from repro.shard import partition_spec, run_sharded

    plan = partition_spec(spec, 4)
    result = run_sharded(spec, 4, record=True)
    assert result.merged_lines == sequential_lines
    result.run_result(spec)   # == run_point(spec) but wall time + shard
"""

from repro.shard.partition import (PartitionError, PartitionPlan, cut_edges,
                                   lookahead_of, partition_hierarchy,
                                   partition_spec)
from repro.shard.record import KeyedRecorder, merge_streams
from repro.shard.runtime import ShardRunResult, record_sharded, run_sharded

__all__ = [
    "PartitionError",
    "PartitionPlan",
    "KeyedRecorder",
    "ShardRunResult",
    "cut_edges",
    "lookahead_of",
    "merge_streams",
    "partition_hierarchy",
    "partition_spec",
    "record_sharded",
    "run_sharded",
]
