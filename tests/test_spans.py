"""Causal span trees (`repro.obs.spans` / `repro.obs.critpath`).

The two load-bearing properties, checked over the full registry:

* **completeness** — every ``mh.deliver``-traced message assembles into
  exactly one rooted span tree with no orphan segment events, under the
  sequential engine and at 2 and 4 shards;
* **zero protocol perturbation** — the canonical trace stream recorded
  with a collector attached stays byte-identical to the committed
  seed goldens (spans are out-of-band: same runs serve as the
  spans-ON identity proof the seed tests provide for spans-OFF).

Plus unit coverage for deterministic sampling, the gzip span stream,
the exact stage partition, the critpath summary, the Chrome-trace
export, the bench-compare span table, the live lag gauges, and the
profiler stride override.
"""

from __future__ import annotations

import gzip
import json
import os

import pytest

from repro.experiments import registry
from repro.experiments.runner import observed_scenario
from repro.obs.critpath import (STAGE_ORDER, chrome_trace, critpath_summary,
                                dominant_stage, iter_deliveries,
                                render_critpath, render_stage_delta,
                                stage_delta, stage_means)
from repro.obs.spans import (SpanCollector, SpanStreamWriter, assemble,
                             completeness, events_from_trace,
                             read_span_events, sampled, write_span_events)
from repro.validation.record import TraceRecorder, first_divergence

from helpers import golden_spec as spec_for

TRACE_DIR = os.path.join(os.path.dirname(__file__), "data", "seed_traces")


def golden_lines(name: str):
    path = os.path.join(TRACE_DIR, f"{name}.jsonl.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def deliver_keys(lines):
    """``(source, local_seq)`` of every payload-deliver trace record."""
    keys = set()
    for line in lines:
        if "mh.deliver" not in line:
            continue
        rec = json.loads(line)
        if rec.get("k") != "mh.deliver":
            continue
        attrs = rec["a"]
        keys.add((attrs["source"], attrs["local_seq"]))
    return keys


def assert_complete(events, lines, label):
    """Every delivered message = exactly one rooted span tree."""
    spanset = assemble(events)
    comp = completeness(spanset)
    assert comp["ok"], (
        f"{label}: {len(comp['unrooted'])} unrooted trees, "
        f"{comp['orphan_events']} orphan events")
    delivered = deliver_keys(lines)
    spanned = {s.key for s in spanset.delivered()}
    assert spanned == delivered, (
        f"{label}: span trees disagree with mh.deliver records "
        f"(missing {sorted(delivered - spanned)[:5]}, "
        f"extra {sorted(spanned - delivered)[:5]})")
    return spanset


# ----------------------------------------------------------------------
# Completeness + identity over the full registry (sequential)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", registry.names())
def test_sequential_spans_complete_and_trace_identical(name):
    rec = TraceRecorder()
    collector = SpanCollector()
    with observed_scenario(spec_for(name), rec, collector) as scenario:
        scenario.run()
    div = first_divergence(golden_lines(name), rec.lines)
    assert div is None, (
        f"{name} trace diverged from its seed golden with a span "
        f"collector attached: {div.describe()}")
    assert_complete(collector.events, rec.lines, f"{name} sequential")


# ----------------------------------------------------------------------
# Completeness + identity at 2 and 4 shards
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", registry.names())
def test_sharded_spans_complete_and_trace_identical(name, shards,
                                                    sharded_golden_run):
    """Spans stitch across shard export boundaries without loss.

    The same runs double as the spans-ON sharded identity proof: the
    merged canonical stream must still equal the sequential golden.
    """
    result = sharded_golden_run(name, shards)
    div = first_divergence(golden_lines(name), result.merged_lines or [])
    assert div is None, (
        f"{name} @ {shards} shards diverged from the sequential golden "
        f"with span collectors attached: {div.describe()}")
    assert_complete(result.span_events or [], result.merged_lines or [],
                    f"{name} @ {shards} shards")
    # Lock-step: every round, every shard runs one window.
    assert result.windows_per_shard == [result.windows] * shards


def test_sharded_span_stream_equals_sequential(sharded_golden_run):
    """The deterministically merged stream is the sequential stream."""
    spec = spec_for("quickstart")
    collector = SpanCollector()
    with observed_scenario(spec, collector) as scenario:
        scenario.run()
    sequential = sorted(
        collector.events,
        key=lambda ev: (ev[1], ev[0], tuple(str(x) for x in ev[2:])))
    for shards in (2, 4):
        result = sharded_golden_run("quickstart", shards)
        assert result.span_events == sequential, (
            f"{shards}-shard span stream differs from sequential")


# ----------------------------------------------------------------------
# Deterministic sampling
# ----------------------------------------------------------------------
class TestSampling:
    def test_rate_one_keeps_everything(self):
        assert all(sampled(seq, 1.0) for seq in range(200))

    def test_sampling_is_deterministic(self):
        kept = [seq for seq in range(500) if sampled(seq, 0.25)]
        again = [seq for seq in range(500) if sampled(seq, 0.25)]
        assert kept == again
        assert 0 < len(kept) < 500

    def test_lower_rates_nest(self):
        # crc32 thresholding: the 10% keep-set is a subset of the 50%.
        low = {seq for seq in range(2000) if sampled(seq, 0.1)}
        high = {seq for seq in range(2000) if sampled(seq, 0.5)}
        assert low <= high

    def test_default_rate_env(self, monkeypatch):
        # The REPRO_SPANS_SAMPLE override is gone: the default is the
        # constant 1.0 and ``rate=`` the one way to sample.
        monkeypatch.setenv("REPRO_SPANS_SAMPLE", "0.25")
        assert SpanCollector().rate == 1.0
        assert SpanCollector(rate=0.25).rate == 0.25
        for bad in (1.5, 0):
            with pytest.raises(ValueError):
                SpanCollector(rate=bad)

    def test_sampled_collector_keeps_whole_trees(self):
        spec = spec_for("quickstart")
        full = SpanCollector()
        with observed_scenario(spec, full) as scenario:
            scenario.run()
        part = SpanCollector(rate=0.4)
        with observed_scenario(spec, part) as scenario:
            scenario.run()
        all_set = assemble(full.events)
        sub_set = assemble(part.events)
        assert 0 < len(sub_set.spans) < len(all_set.spans)
        assert completeness(sub_set)["ok"]
        # A sampled tree carries every event its full twin does.
        for key, span in sub_set.spans.items():
            twin = all_set.spans[key]
            assert span.send_t == twin.send_t
            assert len(span.deliveries) == len(twin.deliveries)
            assert len(span.hops) == len(twin.hops)


# ----------------------------------------------------------------------
# Span stream file round-trip
# ----------------------------------------------------------------------
class TestSpanStream:
    EVENTS = [
        ("send", 1.5, "src0", 0, "<g0>"),
        ("wq", 2.25, "ne1", 0),
        ("segs", 1.75, "src0", "ne1", "SourceData", "src0", 0, 1, "g0"),
        ("dlv", 9.0, "mh3", "src0", 0, 7, 7.5),
    ]

    def test_round_trip_preserves_tuples(self, tmp_path):
        path = str(tmp_path / "spans.jsonl.gz")
        n = write_span_events(path, self.EVENTS)
        assert n == len(self.EVENTS)
        assert read_span_events(path) == self.EVENTS

    def test_plain_jsonl_and_small_window(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        write_span_events(path, self.EVENTS * 10, window=3)
        assert read_span_events(path) == self.EVENTS * 10

    def test_deterministic_bytes(self, tmp_path):
        # Same basename (gzip stores it in the header, like the trace
        # sink), different runs: the bytes must match exactly.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = str(tmp_path / "a" / "spans.jsonl.gz")
        b = str(tmp_path / "b" / "spans.jsonl.gz")
        write_span_events(a, self.EVENTS)
        write_span_events(b, self.EVENTS)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_writer_is_context_manager(self, tmp_path):
        path = str(tmp_path / "cm.jsonl.gz")
        with SpanStreamWriter(path) as sink:
            for ev in self.EVENTS:
                sink.write(ev)
        assert read_span_events(path) == self.EVENTS


# ----------------------------------------------------------------------
# Stage partition and critpath summary
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quickstart_spans():
    collector = SpanCollector()
    with observed_scenario(spec_for("quickstart"), collector) as scenario:
        scenario.run()
    return assemble(collector.events)


class TestCritpath:
    def test_stage_partition_is_exact(self, quickstart_spans):
        count = 0
        for span, d, total, stages in iter_deliveries(quickstart_spans):
            assert total == pytest.approx(d.t - span.send_t)
            assert sum(stages.values()) == pytest.approx(total)
            assert set(stages) <= set(STAGE_ORDER)
            count += 1
        assert count > 0

    def test_summary_shape(self, quickstart_spans):
        summary = critpath_summary(quickstart_spans)
        assert summary["deliveries"] > 0
        shares = [st["share"] for st in summary["stages"].values()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        for band in summary["bands"]:
            if band["count"]:
                assert band["dominant"] in STAGE_ORDER
        assert summary["mean_total_ms"] > 0
        # JSON-able end to end.
        json.dumps(summary)

    def test_dominant_stage_tie_breaks_causally(self):
        assert dominant_stage({"ring": 1.0, "uplink": 1.0}) == "uplink"
        assert dominant_stage({}) is None

    def test_render_smoke(self, quickstart_spans):
        text = render_critpath(critpath_summary(quickstart_spans), "q")
        assert "dominant stage" in text
        assert "uplink" in text

    def test_stage_delta_and_render(self):
        cur = {"uplink": 2.0, "ring": 5.0}
        base = {"uplink": 1.0, "downlink": 3.0}
        rows = stage_delta(cur, base)
        by_stage = {r["stage"]: r for r in rows}
        assert by_stage["uplink"]["delta_ms"] == pytest.approx(1.0)
        assert by_stage["ring"]["baseline_ms"] is None
        assert by_stage["downlink"]["current_ms"] is None
        text = render_stage_delta(rows, "live", "sim")
        assert "uplink" in text and "live" in text

    def test_coarse_assembly_from_golden(self):
        lines = golden_lines("quickstart")
        spanset = assemble(events_from_trace(lines))
        comp = completeness(spanset)
        assert comp["ok"]
        assert {s.key for s in spanset.delivered()} == deliver_keys(lines)
        # No hop detail in a trace: stage math falls back to fanout.
        stages = stage_means(critpath_summary(spanset))
        assert "fanout" in stages


# ----------------------------------------------------------------------
# Chrome-trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_structure(self, quickstart_spans):
        payload = chrome_trace(quickstart_spans, limit=10)
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        phases = {e["ph"] for e in events}
        assert "X" in phases and "M" in phases
        for e in events:
            if e["ph"] == "X":
                assert e["dur"] >= 0
                assert e["name"] in STAGE_ORDER
        tids = {e["tid"] for e in events if e["ph"] == "X"}
        assert 0 < len(tids) <= 10

    def test_limit_none_exports_all(self, quickstart_spans):
        payload = chrome_trace(quickstart_spans, limit=None)
        tids = {e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        rooted = [s for s in quickstart_spans.delivered()
                  if s.send_t is not None]
        assert len(tids) == len(rooted)


# ----------------------------------------------------------------------
# Satellite: live lag gauges
# ----------------------------------------------------------------------
def test_live_obs_report_carries_lag_gauges():
    from helpers import load_schema, validate_report
    from repro.live.builder import NetworkBuilder
    from repro.obs.report import render_summary

    spec = registry.get("quickstart", duration_ms=600.0, warmup_ms=100.0)
    # Without obs the loop has no registry: protocol code skips it.
    assert NetworkBuilder(spec).build().runtime.obs is None
    # Paced (120 ms of wall): the loop sleeps between deadlines, which
    # is what ``yields`` counts with no service registered.
    run = NetworkBuilder(spec, fabric="queue", time_scale=0.2,
                         obs=True).build()
    run.run()
    report = run.result.obs
    assert validate_report(run.result.to_dict(),
                           load_schema("run_entry.schema.json")) == []
    gauges = report["registry"]["gauges"]
    lag = run.runtime.lag_report()
    assert gauges["live.max_lag_ms"]["value"] == lag["max_lag_ms"]
    assert gauges["live.mean_lag_ms"]["value"] == lag["mean_lag_ms"]
    assert gauges["live.events"]["value"] == run.runtime.events_processed
    assert gauges["live.yields"]["value"] == run.runtime.yields > 0
    # Protocol counters reached the registry through runtime.obs.
    assert report["registry"]["counters"]
    text = render_summary(report)
    assert "live.max_lag_ms" in text


def test_live_diff_reports_span_stages():
    from repro.live.diff import diff_spec

    spec = registry.get("quickstart", duration_ms=600.0, warmup_ms=100.0)
    report = diff_spec(spec, time_scale=0.02)
    stages = report["span_stages"]
    assert stages["sim"] and stages["live"]
    assert stages["delta"]
    for row in stages["delta"]:
        assert row["stage"] in STAGE_ORDER


# ----------------------------------------------------------------------
# Satellite: profiler stride
# ----------------------------------------------------------------------
class TestSampleEvery:
    def test_default_and_env(self, monkeypatch):
        from repro.obs.session import DEFAULT_STRIDE, ObsSession
        # The REPRO_OBS_SAMPLE_EVERY override is gone: ``stride=`` or
        # the default.
        monkeypatch.setenv("REPRO_OBS_SAMPLE_EVERY", "8")
        assert ObsSession(horizon_ms=100.0).profiler.stride == DEFAULT_STRIDE
        with pytest.raises(ValueError):
            ObsSession(horizon_ms=100.0, stride=0)

    def test_report_stamps_effective_stride(self):
        from repro.experiments.runner import build_scenario
        from repro.obs.report import render_summary
        from repro.obs.session import ObsSession
        from repro.sim.engine import Simulator

        spec = registry.get("quickstart", duration_ms=400.0, warmup_ms=100.0)
        sim = Simulator(seed=spec.seed)
        scenario = build_scenario(spec, sim=sim)
        session = ObsSession(sim, horizon_ms=spec.duration_ms, name="q",
                             stride=16)
        scenario.run()
        report = session.report()
        assert report["sample_every"] == 16
        assert report["profiler"]["stride"] == 16
        assert "sampling: every 16 dispatches" in render_summary(report)
