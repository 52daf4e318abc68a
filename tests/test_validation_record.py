"""Trace record / replay / diff tests."""

import pytest

from repro.experiments import registry
from repro.sim.trace import TraceBus, TraceRecord, write_trace_lines
from repro.validation.record import (
    TraceRecorder,
    first_divergence,
    line_to_record,
    read_jsonl,
    record_spec,
    record_to_line,
    replay,
)
from repro.validation.suite import standard_suite


def _short(name="quickstart", duration=1_500.0, **overrides):
    return registry.get(name, **{"duration_ms": duration, "warmup_ms": 0.0,
                                 **overrides})


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------
def test_line_roundtrip_preserves_tuples():
    rec = TraceRecord(12.5, "token.hold",
                      {"node": "br:0", "next_gseq": 4,
                       "token_id": (0, "br:0")})
    back = line_to_record(record_to_line(rec))
    assert back.time == rec.time
    assert back.kind == rec.kind
    assert back.attrs == rec.attrs
    assert isinstance(back["token_id"], tuple)


def test_record_to_line_is_canonical():
    a = TraceRecord(1.0, "k", {"b": 2, "a": 1})
    b = TraceRecord(1.0, "k", {"a": 1, "b": 2})
    assert record_to_line(a) == record_to_line(b)


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------
def test_recorder_captures_and_detaches():
    bus = TraceBus()
    with TraceRecorder(bus) as rec:
        bus.emit(1.0, "x", v=1)
        bus.emit(2.0, "y", v=2)
    bus.emit(3.0, "z", v=3)  # after detach: not captured
    assert rec.count == 2
    assert len(rec.lines) == 2
    assert bus.subscriber_count == 0


def test_recorder_file_roundtrip(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    records = [TraceRecord(float(i), "k", {"i": i}) for i in range(5)]
    assert write_trace_lines(path, map(record_to_line, records)) == 5
    back = read_jsonl(path)
    assert [record_to_line(r) for r in back] \
        == [record_to_line(r) for r in records]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------
def test_replay_reproduces_online_monitor_verdicts():
    spec = _short()
    rec = record_spec(spec)
    records = [line_to_record(line) for line in rec.lines]
    suite = standard_suite("ringnet")
    replay(records, suite)
    assert suite.ok
    # Replayed deliveries match the online count.
    deliveries = sum(1 for r in records if r.kind == "mh.deliver")
    assert suite.get("total_order").deliveries_checked == deliveries
    assert deliveries > 0


def test_replay_detects_crafted_violation():
    records = [
        TraceRecord(0.0, "mh.join", {"mh": "mh:a", "ap": "ap:0"}),
        TraceRecord(1.0, "mh.member", {"mh": "mh:a", "base": -1}),
        TraceRecord(2.0, "mh.leave", {"mh": "mh:a", "ap": "ap:0"}),
        TraceRecord(3.0, "mh.deliver", {"mh": "mh:a", "gseq": 0,
                                        "source": "s", "local_seq": 0}),
    ]
    suite = standard_suite("ringnet")
    replay(records, suite)
    assert not suite.ok
    assert any("after leaving" in v for v in suite.all_violations())


def test_replay_detaches_monitors_even_midstream():
    class Boom(Exception):
        pass

    bad = [TraceRecord(0.0, "mh.deliver", {})]  # missing attrs -> KeyError
    suite = standard_suite("ringnet")
    with pytest.raises(KeyError):
        replay(bad, suite)
    # All monitors detached despite the error.
    assert all(m._trace is None for m in suite)


# ---------------------------------------------------------------------------
# Determinism + divergence
# ---------------------------------------------------------------------------
def test_same_seed_streams_identical_and_diff_clean():
    a = record_spec(_short())
    b = record_spec(_short())
    assert a.to_jsonl() == b.to_jsonl()
    assert first_divergence(a.lines, b.lines) is None


def test_different_seed_streams_diverge_with_pinpoint():
    a = record_spec(_short(seed=1))
    b = record_spec(_short(seed=2))
    div = first_divergence(a.lines, b.lines)
    assert div is not None
    assert div.index >= 0
    assert "record" in div.describe()


def test_divergence_on_truncated_stream():
    a = [TraceRecord(0.0, "k", {"i": 0}), TraceRecord(1.0, "k", {"i": 1})]
    div = first_divergence(a, a[:1])
    assert div is not None and div.index == 1 and div.right is None


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------
def test_cli_record_replay_diff(tmp_path, capsys):
    from repro.__main__ import main

    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    assert main(["run", "quickstart", "--duration", "1200", "--quiet",
                 "--record", a]) == 0
    assert main(["run", "quickstart", "--duration", "1200", "--quiet",
                 "--record", b]) == 0
    assert main(["replay", a, b]) == 0
    assert main(["replay", a]) == 0
    out = capsys.readouterr().out
    assert "identical" in out
    assert "no violations" in out
