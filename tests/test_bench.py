"""Unit tests for the repro.bench subsystem (ladder, measure, RSS gate, CLI)."""

import json

import pytest

from repro.bench import (LADDER, bench_report, measure_spec, node_counts,
                         rss_gate, rung_spec, write_report)
from repro.bench.ladder import BASE_SCENARIO, LADDER_SEED, get_rung
from repro.bench.measure import BENCH_SCHEMA, RSS_GROWTH_LIMIT
from repro.experiments import registry


# ---------------------------------------------------------------------------
# Ladder definitions
# ---------------------------------------------------------------------------
def test_ladder_has_at_least_four_rungs_spanning_tens_to_thousands():
    assert len(LADDER) >= 4
    totals = [node_counts(rung_spec(r))["total"] for r in LADDER]
    assert totals == sorted(totals), "rungs must grow monotonically"
    assert totals[0] <= 50
    assert totals[-1] >= 2000


def test_ladder_rungs_are_pinned_and_seeded():
    for rung in LADDER:
        spec = rung_spec(rung)
        assert spec.seed == LADDER_SEED
        assert spec.warmup_ms == 0.0
        assert spec.duration_ms == rung.duration_ms
    assert BASE_SCENARIO in registry.names()


def test_get_rung_by_name_and_unknown():
    assert get_rung("xs") is LADDER[0]
    with pytest.raises(KeyError):
        get_rung("nope")


def test_get_rung_accepts_long_form_aliases():
    # `--rungs xs,small` must mean the same as `--rungs xs,s`.
    assert get_rung("small") is get_rung("s")
    assert get_rung("xsmall") is get_rung("xs")
    assert get_rung("medium") is get_rung("m")
    assert get_rung("large") is get_rung("l")
    assert get_rung("xlarge") is get_rung("xl")
    assert get_rung(" Small ") is get_rung("s")  # whitespace + case


def test_scale_rungs_are_opt_in_and_count_idle_population():
    from repro.bench.ladder import DEFAULT_RUNGS

    assert "xxl" not in DEFAULT_RUNGS and "metro" not in DEFAULT_RUNGS
    assert get_rung("million") is get_rung("metro")
    xxl = node_counts(rung_spec(get_rung("xxl")))
    assert xxl["mhs"] > 100_000  # declared = eager + idle catchment
    metro = node_counts(rung_spec(get_rung("metro")))
    assert metro["total"] > 1_000_000


def test_node_counts_depth1_formula():
    spec = registry.get("quickstart")  # n_br=3, ags=2, aps=2, mhs=2
    counts = node_counts(spec)
    assert counts == {"nes": 3 + 6 + 12, "mhs": 24, "total": 45}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_result():
    spec = registry.get("quickstart", **{"duration_ms": 300.0,
                                         "warmup_ms": 0.0, "seed": 5})
    return measure_spec(spec)


def test_measure_spec_reports_engine_counters(tiny_result):
    r = tiny_result
    assert r["events"] > 0
    assert r["deliveries"] > 0
    assert r["wall_s"] > 0
    assert r["peak_heap"] > 0
    assert r["peak_rss"] > 0
    assert r["nodes"] == r["nes"] + r["mhs"]  # sources reported separately
    assert r["sources"] == 2
    assert r["checked"] is False and r["violations"] == []
    assert "trace_path" not in r  # only streamed runs carry one


def test_measured_population_agrees_with_ladder_formula(tiny_result):
    counts = node_counts(registry.get("quickstart"))
    assert tiny_result["nodes"] == counts["total"]
    assert (tiny_result["nes"], tiny_result["mhs"]) == (counts["nes"],
                                                        counts["mhs"])


def test_peak_heap_recorded_without_any_compaction():
    """A run too small to ever compact still reports its true heap
    high-water mark — `compactions: 0, peak_heap: 0` can no longer be
    confused with "not measured"."""
    spec = registry.get("quickstart", **{
        "duration_ms": 200.0, "warmup_ms": 0.0, "seed": 5,
        "hierarchy.mhs_per_ap": 0,  # no join storm: no timer churn
        "workload.s": 1, "workload.rate_per_sec": 5.0,
    })
    r = measure_spec(spec)
    assert r["compactions"] == 0  # nothing this small triggers compaction
    assert r["peak_heap"] > 0


def test_measure_spec_check_attaches_monitors():
    spec = registry.get("quickstart", **{"duration_ms": 300.0,
                                         "warmup_ms": 0.0, "seed": 5})
    r = measure_spec(spec, check=True)
    assert r["checked"] is True
    assert r["violations"] == []


def test_bench_report_shape(tiny_result):
    report = bench_report([tiny_result])
    assert report["schema"] == BENCH_SCHEMA
    (entry,) = report["results"]
    assert entry["name"] == "quickstart"
    assert entry["peak_rss"] > 0
    # Nothing derived from wall time beyond the two informational
    # fields: a report states exact counts, not rates.
    wallish = [k for k in list(entry) + list(report)
               if "per_sec" in k or "speedup" in k or "calibration" in k]
    assert wallish == []
    assert {"wall_s", "build_s"} <= set(entry)
    json.dumps(report)  # must be JSON-serializable as-is


def test_calibrate_measures_null_engine_rate():
    from repro.bench import calibrate

    rate = calibrate(events=2_000)
    assert rate > 0


# ---------------------------------------------------------------------------
# Peak-RSS baseline gate
# ---------------------------------------------------------------------------
MIB = 1 << 20


def _report(rss_by_name):
    return {"schema": BENCH_SCHEMA,
            "results": [{"name": n} if rss is None
                        else {"name": n, "peak_rss": rss}
                        for n, rss in rss_by_name.items()]}


def _oks(current, baseline):
    return [ok for ok, _ in rss_gate(current, baseline)]


def test_compare_gates_peak_rss_growth():
    """Growth beyond RSS_GROWTH_LIMIT fails, shrinkage never does."""
    assert RSS_GROWTH_LIMIT == 0.50
    base = _report({"xxl": 100 * MIB})
    ((ok, line),) = rss_gate(_report({"xxl": 160 * MIB}), base)
    assert not ok
    assert "MiB" in line and "+60.0%" in line
    assert _oks(_report({"xxl": 140 * MIB}), base) == [True]
    assert _oks(_report({"xxl": 150 * MIB}), base) == [True]  # at the limit
    assert _oks(_report({"xxl": 10 * MIB}), base) == [True]


def test_gate_fails_when_measured_rung_has_no_baseline_entry():
    """A gate that compared nothing must not print ok: a measured rung
    absent from the baseline fails; unmeasured baseline entries don't."""
    rows = rss_gate(_report({"xs": 40 * MIB, "xxl": 58 * MIB}),
                    _report({"xxl": 58 * MIB, "metro": 400 * MIB}))
    assert [ok for ok, _ in rows] == [False, True]
    assert "xs: no baseline entry" in rows[0][1]


@pytest.mark.parametrize("cur, base, side", [
    pytest.param(58 * MIB, None, "baseline", id="baseline-missing"),
    pytest.param(58 * MIB, 0, "baseline", id="baseline-zero"),
    pytest.param(None, 58 * MIB, "measured", id="measured-missing"),
    pytest.param(0, 58 * MIB, "measured", id="measured-zero"),
])
def test_gate_fails_without_positive_rss_on_both_sides(cur, base, side):
    ((ok, line),) = rss_gate(_report({"xxl": cur}), _report({"xxl": base}))
    assert not ok
    assert f"no positive peak_rss on the {side} side" in line


def test_compare_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rss_gate({"nope": 1}, _report({}))
    with pytest.raises(ValueError):
        rss_gate(_report({}), {"nope": 1})


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_ladder_smallest_rung_and_baseline_cycle(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "BENCH_ladder.json"
    assert main(["ladder", "--rungs", "xs", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == BENCH_SCHEMA
    assert report["results"][0]["name"] == "xs"  # rung, not base scenario
    # Second run against the first as baseline: same process, same
    # workload — the high-water mark cannot have grown 50%.
    out2 = tmp_path / "BENCH_ladder2.json"
    assert main(["ladder", "--rungs", "xs", "--out", str(out2),
                 "--baseline", str(out)]) == 0
    assert "ok: peak RSS within" in capsys.readouterr().out


def test_cli_baseline_gate_exit_codes(tmp_path, capsys):
    """Exit 1 on growth past the limit and when nothing was compared."""
    from repro.__main__ import main

    out = tmp_path / "BENCH_ladder.json"
    assert main(["ladder", "--rungs", "xs", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    report["results"][0]["peak_rss"] //= 2
    halved = tmp_path / "halved.json"
    write_report(str(halved), report)
    assert main(["ladder", "--rungs", "xs", "--out", str(out),
                 "--baseline", str(halved)]) == 1
    report["results"][0]["name"] = "xxl"
    other = tmp_path / "other.json"
    write_report(str(other), report)
    capsys.readouterr()
    assert main(["ladder", "--rungs", "xs", "--out", str(out),
                 "--baseline", str(other)]) == 1
    printed = capsys.readouterr().out
    assert "xs: no baseline entry" in printed
    assert "ok:" not in printed


def test_cli_check_duration_and_stream_trace(tmp_path, capsys):
    from repro.__main__ import main

    out = tmp_path / "BENCH_ladder.json"
    assert main(["ladder", "--rungs", "xs", "--duration", "500", "--check",
                 "--stream-trace", str(tmp_path / "tr"),
                 "--out", str(out)]) == 0
    assert "check=ok" in capsys.readouterr().out
    entry = json.loads(out.read_text())["results"][0]
    assert entry["checked"] is True and entry["duration_ms"] == 500.0
    assert entry["trace_path"] == str(tmp_path / "tr" / "xs.jsonl.gz")
    assert entry["trace_records"] > 0
    assert main(["replay", entry["trace_path"]]) == 0


def test_cli_unknown_rung_is_usage_error(tmp_path):
    from repro.__main__ import main

    assert main(["ladder", "--rungs", "no_such_rung",
                 "--out", str(tmp_path / "x.json")]) == 2
