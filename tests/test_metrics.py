"""Tests for metrics collectors, the order checker, and report helpers."""

import pytest

from repro.metrics.collectors import (
    BufferSampler,
    InterruptionCollector,
    LatencyCollector,
    ReliabilityCollector,
    ThroughputCollector,
)
from repro.metrics.order_checker import OrderChecker
from repro.metrics.report import format_table, percentile, summarize
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

from helpers import run_with_traffic, small_net


# ---------------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------------
def test_percentile_empty():
    assert percentile([], 50) == 0.0


def test_percentile_basic():
    assert percentile([1, 2, 3, 4, 5], 50) == 3.0


def test_percentile_py_matches_numpy_exactly():
    np = pytest.importorskip("numpy")
    from repro.metrics.report import _percentile_py

    samples = [
        [7.25],                                   # single element
        [1.0, 1.0, 1.0, 1.0],                     # all duplicates
        [0.0, 0.1, 0.1, 0.2, 5.0, 5.0, 5.0],      # clustered duplicates
        [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
        list(range(100)),
        [1e-9, 2e-9, 3.0000000001, 1e12],
    ]
    for vals in samples:
        s = sorted(float(v) for v in vals)
        for q in (0, 50, 95, 99, 100):
            expect = float(np.percentile(np.asarray(s), q))
            assert _percentile_py(s, q) == expect, (vals, q)


@pytest.mark.parametrize("q", [0, 50, 95, 99, 100])
def test_percentile_py_matches_numpy_property(q):
    np = pytest.importorskip("numpy")
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from repro.metrics.report import _percentile_py

    @given(st.lists(
        st.floats(min_value=-1e9, max_value=1e9,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=60))
    @settings(max_examples=120, deadline=None)
    def check(vals):
        s = sorted(vals)
        assert _percentile_py(s, q) == float(np.percentile(np.asarray(s), q))

    check()


def test_summarize_keys():
    s = summarize([1.0, 2.0, 3.0])
    assert s["mean"] == 2.0
    assert s["max"] == 3.0
    assert set(s) == {"mean", "p50", "p95", "p99", "max"}


def test_format_table_alignment():
    rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
    out = format_table(rows)
    lines = out.splitlines()
    assert len(lines) == 4  # header, sep, 2 rows
    assert lines[0].startswith("a")


def test_format_table_explicit_columns_and_floats():
    out = format_table([{"x": 1.23456, "y": 2}], columns=["y", "x"])
    assert out.splitlines()[0].split()[0] == "y"
    assert "1.23" in out


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


# ---------------------------------------------------------------------------
# Collectors against synthetic traces
# ---------------------------------------------------------------------------
def test_latency_collector_warmup_filter():
    bus = TraceBus()
    col = LatencyCollector(bus, warmup=100.0)
    bus.emit(50.0, "mh.deliver", mh="m", latency=5.0)
    bus.emit(150.0, "mh.deliver", mh="m", latency=7.0)
    assert col.samples == [7.0]
    assert col.count == 1


def test_throughput_collector_rates():
    bus = TraceBus()
    col = ThroughputCollector(bus)
    for t in range(10):
        bus.emit(t * 100.0, "source.send", source="s", local_seq=t)
        bus.emit(t * 100.0 + 10, "mh.deliver", mh="m1", latency=1.0)
        bus.emit(t * 100.0 + 10, "mh.deliver", mh="m2", latency=1.0)
    # 10 sends over 1000 ms = 10 msg/s.
    assert col.sent_rate(0, 1_000) == pytest.approx(10.0)
    assert col.goodput(0, 1_000) == pytest.approx(10.0)
    assert col.min_goodput(0, 1_000) == pytest.approx(10.0)


def test_interruption_collector_pairs_handoff_with_next_delivery():
    bus = TraceBus()
    col = InterruptionCollector(bus)
    bus.emit(100.0, "mh.handoff", mh="m", old="a", new="b", front=0)
    bus.emit(140.0, "mh.deliver", mh="m", latency=1.0)
    bus.emit(200.0, "mh.handoff", mh="m", old="b", new="c", front=1)
    bus.emit(201.0, "mh.handoff", mh="m", old="c", new="d", front=1)
    assert col.interruptions == [40.0]
    assert col.censored == 1  # double handoff without delivery between


def test_reliability_collector_ratios():
    bus = TraceBus()
    col = ReliabilityCollector(bus)
    for i in range(9):
        bus.emit(1.0, "mh.deliver", mh="m", latency=1.0)
    bus.emit(1.0, "mh.tombstone", mh="m", gseq=9)
    assert col.delivery_ratio() == pytest.approx(0.9)
    assert col.worst_mh_ratio() == pytest.approx(0.9)


def test_reliability_collector_empty_is_perfect():
    bus = TraceBus()
    col = ReliabilityCollector(bus)
    assert col.delivery_ratio() == 1.0


# ---------------------------------------------------------------------------
# Per-MH memory regression
# ---------------------------------------------------------------------------
def test_per_mh_state_independent_of_delivery_count():
    # The million-endpoint regression: feeding one MH 5000 deliveries
    # must not create 5000 per-MH entries — per-MH state is one integer
    # per touched window.
    bus = TraceBus()
    thr = ThroughputCollector(bus)
    for _ in range(5_000):
        bus.emit(250.0, "mh.deliver", mh="m", latency=1.0)
    assert len(thr.deliveries["m"]) == 1       # one window bucket
    assert thr.deliveries["m"][2] == 5_000     # holding the full count


def test_throughput_collector_memory_pinned_per_mh():
    import gc
    import tracemalloc

    def feed(per_mh: int):
        gc.collect()
        tracemalloc.start()
        bus = TraceBus()
        col = ThroughputCollector(bus)
        for m in range(200):
            for i in range(per_mh):
                bus.emit((i * 1_000.0) / per_mh, "mh.deliver",
                         mh=f"mh{m}", latency=1.0)
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        del col, bus
        return size

    light = feed(10)
    heavy = feed(500)   # 50x the deliveries, same 10 windows per MH
    # Pre-windowing this ratio was ~25x (a float per delivery); with
    # windowed counts both runs hold the same buckets.
    assert heavy < light * 2.0, (light, heavy)
    # And the absolute footprint stays small: well under 2 KiB per MH.
    assert heavy < 200 * 2_048, heavy


# ---------------------------------------------------------------------------
# Collectors against a live run
# ---------------------------------------------------------------------------
def test_buffer_sampler_tracks_peaks():
    sim, net = small_net()
    src = net.add_source(rate_per_sec=40)
    sampler = BufferSampler(sim, net.buffer_reports, period=10.0)
    sampler.start()
    net.start()
    src.start()
    sim.run(until=3_000)
    assert sampler.series
    assert sampler.max_mq() >= 0
    assert len(sampler.peak_mq) == len(net.nes)


# ---------------------------------------------------------------------------
# OrderChecker violation detection (must catch bad streams)
# ---------------------------------------------------------------------------
def test_checker_catches_non_monotone():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=False)
    bus.emit(1.0, "mh.deliver", mh="m", gseq=5, latency=1, source="s",
             local_seq=5)
    bus.emit(2.0, "mh.deliver", mh="m", gseq=4, latency=1, source="s",
             local_seq=4)
    assert not c.ok
    assert any("monotonicity" in v for v in c.violations)


def test_checker_catches_silent_gap():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=False)
    bus.emit(1.0, "mh.deliver", mh="m", gseq=0, latency=1, source="s",
             local_seq=0)
    bus.emit(2.0, "mh.deliver", mh="m", gseq=2, latency=1, source="s",
             local_seq=2)
    assert any("gap" in v for v in c.violations)


def test_checker_allows_tombstoned_gap():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=False)
    bus.emit(1.0, "mh.deliver", mh="m", gseq=0, latency=1, source="s",
             local_seq=0)
    bus.emit(1.5, "mh.tombstone", mh="m", gseq=1)
    bus.emit(2.0, "mh.deliver", mh="m", gseq=2, latency=1, source="s",
             local_seq=2)
    assert c.ok


def test_checker_catches_disagreement():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=False)
    bus.emit(1.0, "mh.deliver", mh="m1", gseq=0, latency=1, source="s",
             local_seq=0)
    bus.emit(2.0, "mh.deliver", mh="m2", gseq=0, latency=1, source="s",
             local_seq=9)
    assert any("agreement" in v for v in c.violations)


def test_checker_catches_invalid_delivery():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=True)
    bus.emit(1.0, "mh.deliver", mh="m", gseq=0, latency=1, source="ghost",
             local_seq=0)
    assert any("validity" in v for v in c.violations)


def test_checker_assert_ok_raises():
    bus = TraceBus()
    c = OrderChecker(bus, check_validity=False)
    bus.emit(1.0, "mh.deliver", mh="m", gseq=1, latency=1, source="s",
             local_seq=1)
    bus.emit(2.0, "mh.deliver", mh="m", gseq=1, latency=1, source="s",
             local_seq=1)
    with pytest.raises(AssertionError):
        c.assert_ok()


def test_checker_clean_run_reports_ok():
    sim, net, checker = run_with_traffic(until=3_000)
    rep = checker.report()
    assert rep["violations"] == 0
    assert rep["deliveries"] > 0
