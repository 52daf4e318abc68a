"""Unit tests for repro.obs: histograms, profiler, session lifecycle."""

import io
import json
import math

import pytest

import repro.obs.session as session_mod
from repro.experiments import registry as scenario_registry
from repro.experiments.runner import build_scenario
from repro.obs.profiler import (DispatchProfiler, handler_ident, kind_of,
                                render_top)
from repro.experiments.results import RunResult, export_json
from repro.obs.session import Histogram, ObsSession, diff_counts
from repro.sim.engine import Simulator
from repro.sim.trace import line_to_record
from repro.validation.record import TraceRecorder


# ----------------------------------------------------------------------
# Histograms and count deltas
# ----------------------------------------------------------------------
def test_histogram_buckets_are_log2():
    h = Histogram("h")
    for v in (0.0, 0.75, 1.5, 3.0, 3.9):
        h.observe(v)
    # 0.0 -> bucket 0; 0.75 -> (0.5,1] -> 0; 1.5 -> 1; 3.0/3.9 -> 2
    assert h.buckets == {0: 2, 1: 1, 2: 2}
    assert h.count == 5
    assert h.min == 0.0 and h.max == 3.9
    assert h.mean == pytest.approx(sum((0.0, 0.75, 1.5, 3.0, 3.9)) / 5)


def test_histogram_quantile_is_bucket_upper_edge():
    h = Histogram("h")
    for v in (1.5,) * 9 + (100.0,):
        h.observe(v)
    assert h.quantile(0.5) == 2.0
    assert h.quantile(0.99) == float(2 ** math.frexp(100.0)[1])


def test_histogram_negative_values_use_underflow_bucket():
    h = Histogram("h")
    for v in (-5.0, -0.25, 0.0, 0.75):
        h.observe(v)
    # Negatives must NOT alias into bucket 0 alongside the zeros.
    assert h.underflow == 2
    assert h.buckets == {0: 2}
    assert h.count == 4
    assert h.min == -5.0 and h.max == 0.75
    snap = h.snapshot()
    assert snap["underflow"] == 2
    assert snap["buckets"] == {"0": 2}


def test_histogram_quantile_accounts_for_underflow_mass():
    h = Histogram("h")
    for v in (-1.0,) * 6 + (1.5,) * 4:
        h.observe(v)
    # 60% of the mass is negative: the median sits in the underflow
    # slot (upper edge 0.0), while p90 reaches the [1, 2) bucket.
    assert h.quantile(0.5) == 0.0
    assert h.quantile(0.9) == 2.0
    # All-negative sample: every quantile reads 0.0, never 1.0.
    g = Histogram("g")
    for v in (-3.0, -2.0, -1.0):
        g.observe(v)
    assert g.quantile(0.5) == 0.0
    assert g.quantile(0.99) == 0.0


def test_histogram_no_underflow_key_for_nonnegative_sample():
    h = Histogram("h")
    for v in (0.0, 1.0, 2.0):
        h.observe(v)
    assert "underflow" not in h.snapshot()


def test_histogram_empty_snapshot():
    assert Histogram("h").snapshot() == {"count": 0}


def test_diff_counts():
    assert diff_counts({"a": 5, "b": 2}, {"a": 3}) == {"a": 2, "b": 2}
    assert diff_counts({"a": 3}, {"a": 3}) == {}


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class _Handler:
    def fire(self):
        pass


def test_profiler_pools_bound_methods():
    p = DispatchProfiler(stride=4)
    a, b = _Handler(), _Handler()
    p.record(a.fire, 0.001)
    p.record(b.fire, 0.003)
    rows = p.summary()
    assert len(rows) == 1
    row = rows[0]
    assert row["handler"] == "_Handler.fire"
    assert row["samples"] == 2
    assert row["est_events"] == 8
    assert row["share"] == 1.0
    assert row["wall_ms_est"] == pytest.approx(0.004 * 4 * 1e3)


def test_profiler_rejects_bad_stride():
    with pytest.raises(ValueError):
        DispatchProfiler(stride=0)


def test_handler_ident_and_kind():
    h = _Handler()
    assert handler_ident(h.fire) is _Handler.fire
    assert kind_of(h.fire) == "test_obs"  # module sans repro. prefix


def test_render_top():
    p = DispatchProfiler(stride=2)
    p.record(_Handler().fire, 0.002)
    text = render_top(p.summary())
    assert "_Handler.fire" in text and "share" in text
    assert render_top([]) == "(no profiler samples)"


# ----------------------------------------------------------------------
# Session lifecycle
# ----------------------------------------------------------------------
def _quickstart_spec(duration_ms=1200.0):
    return scenario_registry.get("quickstart", duration_ms=duration_ms,
                                 warmup_ms=0.0)


def _run_session(spec, **kw):
    sim = Simulator(seed=spec.seed)
    scenario = build_scenario(spec, sim=sim)
    session = ObsSession(sim, horizon_ms=spec.duration_ms, **kw)
    scenario.run()
    session.finish()
    return sim, session


def test_session_validates_arguments():
    sim = Simulator(seed=1)
    with pytest.raises(ValueError):
        ObsSession(sim, horizon_ms=0.0)
    with pytest.raises(ValueError):
        ObsSession(sim, horizon_ms=-1.0)


def test_session_attaches_and_detaches():
    sim = Simulator(seed=1)
    assert sim.obs_hook is None
    saved_counting = sim.trace.counting
    subscribers = sim.trace.subscriber_count
    session = ObsSession(sim, horizon_ms=100.0)
    assert sim.obs_hook is session
    assert sim.trace.counting is True
    assert sim.trace.subscriber_count == subscribers + 1
    session.finish()
    session.finish()  # idempotent
    assert sim.obs_hook is None
    assert sim.trace.counting is saved_counting
    assert sim.trace.subscriber_count == subscribers


def test_session_restores_disabled_counting():
    sim = Simulator(seed=1)
    sim.trace.counting = False  # benchmark configuration
    session = ObsSession(sim, horizon_ms=100.0)
    assert sim.trace.counting is True
    session.finish()
    assert sim.trace.counting is False


def test_session_window_accounting_is_exact():
    spec = _quickstart_spec()
    sim, session = _run_session(spec)
    rep = session.report()
    assert rep["timeline"] == session.rows
    assert rep["events"] == sim.events_processed
    assert sum(row["events"] for row in session.rows) == rep["events"]
    assert rep["windows"] == len(session.rows)
    # Windows tile the horizon: monotone edges, w indexes consecutive.
    for i, row in enumerate(session.rows):
        assert row["w"] == i
        assert row["t1"] >= row["t0"]
    assert rep["engine"]["events_processed"] == sim.events_processed


def test_session_collects_protocol_metrics():
    _, session = _run_session(_quickstart_spec())
    report = session.report()
    kinds = report["trace_counts"]
    assert kinds["token.hold"] > 0
    assert kinds["ordered"] > 0
    hists = report["histograms"]
    assert hists["ordering.assign_latency_ms"]["count"] == kinds["ordered"]
    assert hists["engine.heap_depth"]["count"] > 0


def test_assign_latency_is_derived_from_the_ordered_records():
    """``ordering.assign_latency_ms`` is read off the trace: one value
    per ``ordered`` record, ``time - created_at``, in emission order."""
    spec = _quickstart_spec()
    sim = Simulator(seed=spec.seed)
    recorder = TraceRecorder(sim.trace)
    scenario = build_scenario(spec, sim=sim)
    session = ObsSession(sim, horizon_ms=spec.duration_ms)
    scenario.run()
    report = session.report()
    ordered = [line_to_record(line) for line in recorder.lines
               if '"k":"ordered"' in line]
    hist = report["histograms"]["ordering.assign_latency_ms"]
    assert hist["count"] == report["trace_counts"]["ordered"] == len(ordered)
    total = 0.0
    for rec in ordered:
        total += rec.time - rec["created_at"]
    assert hist["sum"] == round(total, 6)


def test_session_profiler_names_cost_centers():
    _, session = _run_session(_quickstart_spec())
    rows = session.profiler.summary()
    # ``top`` keeps the heaviest rows.  Three handler kinds carry most
    # of the sampled events; the rarest get one sample or none,
    # depending on where the 1-in-32 stride falls.
    top = session.profiler.summary(top=3)
    assert len(rows) > 3 and top == rows[:3]
    handlers = {row["handler"] for row in top}
    assert "Fabric._arrive" in handlers
    # Shares are rounded to 4 decimals per handler, so the sum can be
    # off by up to 5e-5 per row — bound by the row count, not 1e-6.
    assert abs(sum(r["share"] for r in rows) - 1.0) <= 5e-5 * len(rows)


def test_session_write_and_load_artifacts(tmp_path):
    """The report is a run entry's ``obs`` section: it survives the
    artifact's JSON round trip, timeline rows included."""
    spec = _quickstart_spec()
    _, session = _run_session(spec)
    path = str(tmp_path / "run.json")
    export_json(path, [RunResult(obs=session.report())])
    with open(path, encoding="utf-8") as fh:
        (run,) = json.load(fh)["runs"]
    report = run["obs"]
    assert report["name"] == "run"
    assert report["timeline"] == session.rows
    assert RunResult.from_dict(run).obs == report


def test_progress_heartbeat_writes_to_sink(monkeypatch):
    monkeypatch.setattr(session_mod, "PROGRESS_INTERVAL_S", 0.0)
    sink = io.StringIO()
    spec = _quickstart_spec(duration_ms=600.0)
    _, session = _run_session(spec, progress=True, progress_sink=sink)
    out = sink.getvalue()
    assert "[obs]" in out and "ev/s" in out


def test_disabled_fast_path_unchanged():
    """Without a session the engine must not consult any hook state."""
    spec = _quickstart_spec(duration_ms=600.0)
    sim = Simulator(seed=spec.seed)
    scenario = build_scenario(spec, sim=sim)
    scenario.run()
    assert sim.obs_hook is None
    assert sim.events_processed > 0
