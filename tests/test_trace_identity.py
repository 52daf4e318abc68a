"""Byte-identity of every registry scenario against seed-commit traces.

The golden streams under ``tests/data/seed_traces/`` were recorded at
the pre-optimization seed state of the simulator (before heap
compaction, the tuple heap, the field-wise token snapshot, the deduped
trace dispatch, the MQ pending index, and the transport timer rework).
Every optimization of the hot paths must keep each scenario's canonical
JSONL stream **byte-identical**: ``first_divergence`` over the full
stream is the proof that ordering, membership, and timing behaviour did
not move at all.  The sharded runs are also harvested: their run
entries must equal the sequential ``run_point``'s.

Regenerating goldens (only after an *intentional* behaviour change —
never to make an optimization "pass"):

    PYTHONPATH=src python tests/regen_seed_traces.py
"""

import gzip
import os

import pytest

from repro.experiments import registry
from repro.experiments.runner import run_point
from repro.shard import record_sharded
from repro.sim.trace import read_trace_lines
from repro.validation.record import first_divergence, record_spec, replay
from repro.validation.suite import standard_suite

from helpers import golden_spec

TRACE_DIR = os.path.join(os.path.dirname(__file__), "data", "seed_traces")


def record(name: str):
    """Record ``name`` exactly the way the goldens were recorded."""
    return record_spec(golden_spec(name))


def golden_lines(name: str):
    path = os.path.join(TRACE_DIR, f"{name}.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def test_all_registry_scenarios_have_goldens():
    missing = [n for n in registry.names()
               if not os.path.exists(os.path.join(TRACE_DIR,
                                                  f"{n}.jsonl.gz"))]
    assert missing == [], f"no seed trace recorded for {missing}"


#: The golden also recorded plain, with no other observer attached.
PLAIN = "quickstart"


@pytest.mark.parametrize("name", registry.names())
def test_trace_byte_identical_to_seed(name, golden_run):
    """The session's golden run, which streams and collects spans as it
    records; :data:`PLAIN` is recorded a second time on its own."""
    golden = golden_lines(name)
    runs = [golden_run(name).lines]
    if name == PLAIN:
        runs.append(record(name).lines)
    for lines in runs:
        div = first_divergence(golden, lines)
        assert div is None, (
            f"{name} diverged from its seed-commit trace at "
            f"{div.describe()}")


@pytest.mark.parametrize("name", registry.names())
def test_streamed_trace_byte_identical_to_seed(name, golden_run):
    """The streaming sink writes exactly the lines the recorder keeps.

    The same run as above, through the windowed gzip sink (window 256,
    so many flush boundaries inside every scenario), read back from
    disk.
    """
    run = golden_run(name)
    golden = golden_lines(name)
    div = first_divergence(golden, read_trace_lines(run.stream_path))
    assert div is None, (
        f"{name} streamed trace diverged from its seed-commit trace at "
        f"{div.describe()}")
    assert run.streamed == len(golden)


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_streamed_trace_byte_identical(shards, tmp_path):
    """Sharded runs stream their merged lines byte-identically too.

    The sharded stream writes the same merged-lines object the stream-off
    sharded identity test (below, full registry matrix) already
    compares, so one scenario per shard count suffices to cover the
    write-and-read-back path.
    """
    path = str(tmp_path / "quickstart.jsonl.gz")
    lines = record_sharded(golden_spec("quickstart"), shards,
                           stream_path=path)
    assert read_trace_lines(path) == lines
    div = first_divergence(golden_lines("quickstart"), lines)
    assert div is None, div and div.describe()


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", registry.names())
def test_sharded_trace_byte_identical_to_sequential(name, shards,
                                                    sharded_golden_run):
    """The space-parallel backend's determinism guarantee, in full.

    Re-record each scenario with K worker shards and compare the merged
    canonical stream against the sequential golden byte for byte.  The
    goldens equal a fresh sequential recording (asserted above), so
    this transitively proves sharded == sequential for every registry
    scenario — crossing the window protocol, the replicated control
    plane, churn/token-holder synchronization probes, cross-shard
    handoffs, and the deterministic merge.

    The run is the session's one recorded, span-collected run of this
    ``(name, shards)`` (tests/test_spans.py asserts span completeness on
    it); identity with no collector attached is the next test's.
    """
    lines = sharded_golden_run(name, shards).merged_lines
    div = first_divergence(golden_lines(name), lines)
    assert div is None, (
        f"{name} with {shards} shards diverged from the sequential "
        f"engine at {div.describe()}")


#: The result oracle's scenarios: churn probes, token-holder probes,
#: roaming over the cut, a fault plan, open-world arrivals, the smoke.
RESULT_SCENARIOS = ["churn_heavy", "failure_drill", "handoff_storm",
                    "split_brain", "open_world_mobile", "quickstart"]

#: name -> the sequential run entry, simulated once for both shard counts.
_SEQUENTIAL_ENTRIES = {}


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", RESULT_SCENARIOS)
def test_sharded_run_result_equals_sequential(name, shards,
                                              sharded_golden_run):
    """Results, not just traces: the session's recorded run harvested
    (trace fields from the merged stream, network fields as the workers'
    summed totals) is ``run_point``'s entry but the wall time and the
    ``shard`` section."""
    spec = golden_spec(name)
    if name not in _SEQUENTIAL_ENTRIES:
        _SEQUENTIAL_ENTRIES[name] = run_point(spec).to_dict(
            include_timing=False)
    entry = sharded_golden_run(name, shards).run_result(spec).to_dict(
        include_timing=False)
    assert entry.pop("shard")["shards"] == shards
    assert entry == _SEQUENTIAL_ENTRIES[name]
    assert entry["delivered"] > 0


#: Representative subset for the deeper 8-way decomposition: the
#: smoke scenario, the two mobility-heavy ones (cross-shard handoffs,
#: open-world churn — roamers served over the most cuts), and one
#: fault-plan scenario (partitions + probe-synchronized activations).
SHARDS8_SUBSET = ["quickstart", "handoff_storm", "open_world_mobile",
                  "split_brain"]


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", SHARDS8_SUBSET[1:])
def test_sharded_trace_byte_identical_with_no_collector(name, shards):
    """Spans-off sharded identity at the shard counts whose full-registry
    matrix above runs with collectors attached (``quickstart``, the
    subset's first, is the streamed test's at both counts)."""
    lines = record_sharded(golden_spec(name), shards)
    div = first_divergence(golden_lines(name), lines)
    assert div is None, (
        f"{name} with {shards} shards (no collector) diverged from the "
        f"sequential engine at {div.describe()}")


@pytest.mark.parametrize("name", SHARDS8_SUBSET)
def test_sharded_trace_byte_identical_at_eight_shards(name):
    """Identity survives the 8-way split, where BR units must be split
    below subtree granularity and a roaming MH can attach under any of
    seven foreign shards."""
    lines = record_sharded(golden_spec(name), 8)
    div = first_divergence(golden_lines(name), lines)
    assert div is None, (
        f"{name} with 8 shards diverged from the sequential engine at "
        f"{div.describe()}")


def test_recorded_stream_replays_through_monitor_suite():
    """The golden streams stay consumable by the offline monitor path."""
    from repro.validation.record import line_to_record

    records = [line_to_record(line) for line in golden_lines("quickstart")]
    suite = standard_suite("ringnet")
    replay(records, suite)
    assert suite.all_violations() == []
