"""CLI smoke tests: the readers of a run artifact's ``obs`` sections
(``summarize``, ``top``, ``timeline``), ``run --obs`` on the sim and
sharded backends, sampled ``run --spans --rate`` and ``ladder
--progress``, exercised in-process."""

import json
import os

import pytest

from repro.__main__ import main
from repro.experiments import registry
from repro.experiments.results import export_json
from repro.experiments.runner import run_point


@pytest.fixture()
def artifact(tmp_path):
    """One small observed run's ``--out`` artifact, written to tmp."""
    spec = registry.get("quickstart", duration_ms=1200.0, warmup_ms=0.0)
    spec = spec.with_overrides({"name": "clismoke"})
    path = str(tmp_path / "run.json")
    export_json(path, [run_point(spec, obs=True)])
    return path


def _obs(path):
    (run,) = json.load(open(path, encoding="utf-8"))["runs"]
    return run["obs"]


# ----------------------------------------------------------------------
# summarize / top / timeline
# ----------------------------------------------------------------------
def test_obs_summarize(artifact, capsys):
    assert main(["summarize", artifact]) == 0
    out = capsys.readouterr().out
    assert "clismoke" in out
    assert "token.holds" in out


def test_obs_top(artifact, capsys):
    assert main(["top", artifact]) == 0
    out = capsys.readouterr().out
    assert "Fabric._arrive" in out
    assert "share" in out


def test_obs_timeline(artifact, capsys):
    assert main(["timeline", artifact]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    # One line per window plus the header block.
    assert len(out.strip().splitlines()) >= _obs(artifact)["windows"]


def test_obs_missing_file_exits_2(tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "nope.json")
    assert main(["summarize", missing]) == 2
    assert "error" in capsys.readouterr().err
    # An artifact without an obs section has nothing to render.
    plain = str(tmp_path / "plain.json")
    assert main(["run", "quickstart", "--duration", "400", "--quiet",
                 "--out", plain]) == 0
    capsys.readouterr()
    for reader in ("summarize", "top", "timeline"):
        assert main([reader, plain]) == 2
        assert "no run entry carries an obs section" \
            in capsys.readouterr().err


def test_sharded_span_rate_does_not_leak_into_the_process(tmp_path, capsys):
    """``run --shards K --spans --rate R`` hands the workers their rate
    as an argument, not through process state: a collector built
    afterwards samples everything again, and the sampled stream still
    assembles into complete trees — fewer than the unsampled run's."""
    from repro.obs.spans import SpanCollector

    before = dict(os.environ)
    run = ["run", "quickstart", "--shards", "2", "--duration", "800",
           "--quiet", "--spans"]
    stream = "SPANS_quickstart#p0r0.jsonl.gz"
    assert main(run + [str(tmp_path / "half"), "--rate", "0.5"]) == 0
    assert dict(os.environ) == before
    assert SpanCollector().rate == 1.0
    assert main(run + [str(tmp_path / "full")]) == 0
    capsys.readouterr()
    assert main(["spans", str(tmp_path / "half" / stream)]) == 0
    sampled = capsys.readouterr().out
    assert "completeness: ok" in sampled
    assert main(["spans", str(tmp_path / "full" / stream)]) == 0
    assert sampled.split("->")[1] != capsys.readouterr().out.split("->")[1]


# ----------------------------------------------------------------------
# run --obs, ladder --progress
# ----------------------------------------------------------------------
def test_experiments_run_obs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["run", "quickstart", "--duration", "800",
               "--quiet", "--obs", "--out", "run.json"])
    assert rc == 0
    assert os.listdir(tmp_path) == ["run.json"], "run --obs wrote a file"
    assert _obs(str(tmp_path / "run.json"))["events"] > 0, \
        "run --obs wrote no obs section"


def test_sweep_obs_sections_come_back_from_the_workers(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    assert main(["sweep", "quickstart", "--duration", "400", "--quiet",
                 "--param", "workload.rate_per_sec=10,20", "--reps", "1",
                 "--jobs", "2", "--obs", "--out", out]) == 0
    assert os.listdir(tmp_path) == ["sweep.json"]
    runs = json.load(open(out, encoding="utf-8"))["runs"]
    assert [run["obs"]["name"] for run in runs] \
        == ["quickstart#p0r0", "quickstart#p1r0"]
    capsys.readouterr()
    # Several sections: one heading per run.
    assert main(["summarize", out]) == 0
    printed = capsys.readouterr().out
    assert "quickstart#p0r0:" in printed and "quickstart#p1r0:" in printed


def test_shard_run_obs(tmp_path, capsys):
    out = str(tmp_path / "run.json")
    rc = main(["run", "quickstart", "--shards", "2",
               "--duration", "1200", "--obs", "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    # The run entry's shard section, printed: per-shard lists.
    assert "  window_stalls_per_shard: [" in printed
    assert "  lookahead_ms: 2.0" in printed
    assert "stall_causes" not in printed
    report = _obs(out)
    assert report["n_shards"] == 2
    # The sharded section renders through the same CLI.
    assert main(["summarize", out]) == 0
    assert main(["top", out]) == 0


def test_bench_progress_flag(tmp_path, capsys):
    out = str(tmp_path / "BENCH_p.json")
    rc = main(["ladder", "--rungs", "xs", "--duration", "600",
               "--progress", "--out", out])
    assert rc == 0
    assert os.path.exists(out)
