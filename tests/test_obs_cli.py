"""CLI smoke tests: the readers of ``OBS_*`` artifacts (``summarize``,
``top``, ``timeline``), ``run --obs`` on the sim and sharded backends,
sampled ``run --spans --rate`` and ``ladder --progress``, exercised
in-process."""

import glob
import json
import os

import pytest

from repro.__main__ import main
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.obs.session import ObsSession
from repro.sim.engine import Simulator


@pytest.fixture()
def artifacts(tmp_path):
    """One small observed run, written to tmp: (report_path, timeline)."""
    spec = registry.get("quickstart", duration_ms=1200.0, warmup_ms=0.0)
    sim = Simulator(seed=spec.seed)
    scenario = build_scenario(spec, sim=sim)
    session = ObsSession(sim, horizon_ms=spec.duration_ms, name="clismoke")
    scenario.run()
    session.finish()
    paths = session.write(out_dir=str(tmp_path))
    return paths


# ----------------------------------------------------------------------
# summarize / top / timeline
# ----------------------------------------------------------------------
def test_obs_summarize(artifacts, capsys):
    assert main(["summarize", artifacts["report"]]) == 0
    out = capsys.readouterr().out
    assert "clismoke" in out
    assert "token.holds" in out


def test_obs_top(artifacts, capsys):
    assert main(["top", artifacts["report"]]) == 0
    out = capsys.readouterr().out
    assert "Fabric._arrive" in out
    assert "share" in out


def test_obs_timeline(artifacts, capsys):
    assert main(["timeline", artifacts["timeline"]]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    # One line per window plus the header block.
    report = json.load(open(artifacts["report"], encoding="utf-8"))
    assert len(out.strip().splitlines()) >= report["windows"]


def test_obs_missing_file_exits_2(tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "OBS_nope.json")
    assert main(["summarize", missing]) == 2
    assert "error" in capsys.readouterr().err


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
def test_experiments_run_obs(tmp_path):
    cwd = os.getcwd()
    os.chdir(str(tmp_path))
    try:
        rc = main(["run", "quickstart", "--duration", "800",
                   "--quiet", "--obs", str(tmp_path)])
    finally:
        os.chdir(cwd)
    assert rc == 0
    obs_files = glob.glob(str(tmp_path / "OBS_quickstart*p0r0.json"))
    assert obs_files, "run --obs wrote no OBS report"


def test_shard_run_obs(tmp_path, capsys):
    rc = main(["run", "quickstart", "--shards", "2",
               "--duration", "1200", "--obs", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    # The run entry's shard section, printed: per-shard lists.
    assert "  window_stalls_per_shard: [" in out
    assert "  lookahead_ms: 2.0" in out
    assert "stall_causes" not in out
    obs_files = glob.glob(str(tmp_path / "OBS_quickstart#p0r0.json"))
    assert obs_files, "run --shards --obs wrote no OBS report"
    report = json.load(open(obs_files[0], encoding="utf-8"))
    assert report["n_shards"] == 2
    # The sharded report renders through the same CLI.
    assert main(["summarize", obs_files[0]]) == 0
    assert main(["top", obs_files[0]]) == 0


def test_bench_progress_flag(tmp_path, capsys):
    out = str(tmp_path / "BENCH_p.json")
    rc = main(["ladder", "--rungs", "xs", "--duration", "600",
               "--progress", "--out", out])
    assert rc == 0
    assert os.path.exists(out)
