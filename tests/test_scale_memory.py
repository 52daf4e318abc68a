"""Scale-rung memory regression: idle catchment MHs must cost ~nothing.

The xxl/metro rungs only fit in this container because a registered-but-
never-materialized catchment member is a *count*, not an object (see
``RingNet.register_catchment``).  These tests pin that invariant with
``tracemalloc`` at the real xxl shape, and prove the streaming trace
sink is a lossless stand-in for in-memory recording (record -> stream ->
replay round trip).
"""

import gc
import sys
import tracemalloc

import pytest

from repro.bench.ladder import get_rung, node_counts, rung_spec
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.sim import rand
from repro.validation.record import (line_to_record, read_trace_lines,
                                     record_spec, record_to_line)

#: Allowed resident bytes per *idle* (never-materialized) catchment MH.
#: The true cost is a share of one ``{ap_id: count}`` dict entry per AP
#: (well under one byte per member at xxl's 195/AP); 64 bytes leaves
#: room for allocator noise while still catching any accidental
#: per-member object.
IDLE_MH_BYTE_BOUND = 64

#: Traced bytes per ``UniformBlocks`` reader after its first draw, the
#: generator aside.  A wide fan-out holds ~2,000 of them (a loss and a
#: jitter reader per sender) and its peak RSS is gated: the reader is a
#: chain over a bound refill (440 B measured on python 3.11.7; the
#: python-level reader it replaced read 176 B), so a reader that grows
#: another iterator object fails here first.
READER_BYTE_BOUND = 480


def _traced_build_bytes(spec):
    """Traced heap bytes retained after building ``spec``'s scenario."""
    gc.collect()
    tracemalloc.start()
    try:
        scenario = build_scenario(spec)
        gc.collect()
        size, _peak = tracemalloc.get_traced_memory()
        # Keep the scenario alive through the measurement, then drop it.
        del scenario
    finally:
        tracemalloc.stop()
    gc.collect()
    return size


# ---------------------------------------------------------------------------
# Idle-MH memory at the xxl shape
# ---------------------------------------------------------------------------
def test_xxl_idle_mhs_are_counts_not_objects():
    spec = rung_spec(get_rung("xxl"))
    scenario = build_scenario(spec)
    net = scenario.net
    counts = node_counts(spec)
    # ~100k declared MHs, but only mhs_per_ap of them exist as objects.
    assert counts["mhs"] > 100_000
    assert net.catchment_total == counts["mhs"] - len(net.mobile_hosts)
    assert net.catchment_materialized == 0  # nothing ran yet
    assert net.catchment_idle == net.catchment_total


def test_xxl_per_idle_mh_bytes_stay_bounded():
    """Registering the full xxl catchment (~100k idle MHs) must cost
    O(APs), not O(MHs): the per-idle-MH byte delta vs a zero-idle build
    stays under a fixed small bound."""
    xxl = rung_spec(get_rung("xxl"))
    dense = xxl.with_overrides({"hierarchy.idle_per_ap": 0,
                                "openworld.enabled": False})
    idle_count = node_counts(xxl)["mhs"] - node_counts(dense)["mhs"]
    assert idle_count >= 90_000

    size_dense = _traced_build_bytes(dense)
    size_idle = _traced_build_bytes(xxl)
    per_idle = max(0, size_idle - size_dense) / idle_count
    assert per_idle < IDLE_MH_BYTE_BOUND, (
        f"{per_idle:.1f} B per idle MH (bound {IDLE_MH_BYTE_BOUND} B); "
        "did someone materialize catchment members eagerly?")


# ---------------------------------------------------------------------------
# Streaming sink round trip
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def roundtrip_spec():
    return registry.get("quickstart", **{"duration_ms": 600.0,
                                         "warmup_ms": 0.0, "seed": 11})


def test_stream_round_trip_equals_in_memory(tmp_path, roundtrip_spec):
    """record -> stream -> replay: the windowed JSONL.gz sink must be a
    byte-level stand-in for the in-memory recorder."""
    in_memory = record_spec(roundtrip_spec).lines
    assert in_memory, "spec produced no trace records"

    path = str(tmp_path / "trace.jsonl.gz")
    sink = record_spec(roundtrip_spec, stream_path=path)
    assert sink.count == len(in_memory)

    streamed = read_trace_lines(path)
    assert streamed == in_memory

    # Replay: parse every streamed line back into a TraceRecord and
    # re-serialize; canonical form must survive the round trip.
    replayed = [record_to_line(line_to_record(line)) for line in streamed]
    assert replayed == in_memory


def test_stream_uses_small_windows(tmp_path, roundtrip_spec):
    """A tiny window (frequent gzip flushes) must not change content."""
    big = str(tmp_path / "big.jsonl.gz")
    small = str(tmp_path / "small.jsonl.gz")
    record_spec(roundtrip_spec, stream_path=big)
    record_spec(roundtrip_spec, stream_path=small, window=7)
    assert read_trace_lines(small) == read_trace_lines(big)


# ---------------------------------------------------------------------------
# Block-drawn uniform readers
# ---------------------------------------------------------------------------
@pytest.mark.skipif(rand.np is None, reason="block draws need numpy")
def test_a_block_reader_is_small_after_its_first_draw():
    gens = [rand.np.random.default_rng(i) for i in range(2048)]
    gc.collect()
    tracemalloc.start()
    try:
        readers = [rand.UniformBlocks(gen) for gen in gens]
        for reader in readers:
            reader.random()
        gc.collect()
        size, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_reader = (size - sys.getsizeof(readers)) / len(readers)
    assert per_reader <= READER_BYTE_BOUND, f"{per_reader:.1f} B per reader"
