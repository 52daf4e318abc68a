"""CLI smoke tests: ``python -m repro.obs``, the ``--obs`` flags of the
experiments / shard entry points and the bench ``--progress`` flag,
exercised in-process."""

import glob
import json
import os

import pytest

from repro.bench.__main__ import main as bench_main
from repro.experiments import registry
from repro.experiments.__main__ import main as experiments_main
from repro.experiments.runner import build_scenario
from repro.obs.__main__ import main as obs_main
from repro.obs.session import ObsSession
from repro.shard.__main__ import main as shard_main
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
# python -m repro.obs
# ----------------------------------------------------------------------
def test_obs_summarize(artifacts, capsys):
    assert obs_main(["summarize", artifacts["report"]]) == 0
    out = capsys.readouterr().out
    assert "clismoke" in out
    assert "token.holds" in out


def test_obs_top(artifacts, capsys):
    assert obs_main(["top", artifacts["report"]]) == 0
    out = capsys.readouterr().out
    assert "Fabric._arrive" in out
    assert "share" in out


def test_obs_timeline(artifacts, capsys):
    assert obs_main(["timeline", artifacts["timeline"]]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    # One line per window plus the header block.
    report = json.load(open(artifacts["report"], encoding="utf-8"))
    assert len(out.strip().splitlines()) >= report["windows"]


def test_obs_missing_file_exits_2(tmp_path, capsys):
    missing = os.path.join(str(tmp_path), "OBS_nope.json")
    assert obs_main(["summarize", missing]) == 2
    assert "error" in capsys.readouterr().err


def test_sharded_span_rate_does_not_leak_into_the_process(capsys):
    """``--shards K --rate R`` hands the workers their rate through the
    environment they inherit; the calling process gets it back as it
    was, so a collector built afterwards samples everything again."""
    from repro.obs.spans import RATE_ENV, SpanCollector

    before = dict(os.environ)
    assert RATE_ENV not in before
    assert obs_main(["spans", "quickstart", "--shards", "2",
                     "--rate", "0.5", "--duration", "800"]) == 0
    sampled = capsys.readouterr().out
    assert dict(os.environ) == before
    assert SpanCollector().rate == 1.0
    # The rate did reach the workers: an unsampled run reads differently.
    assert obs_main(["spans", "quickstart", "--shards", "2",
                     "--duration", "800"]) == 0
    assert sampled.split("->")[1] != capsys.readouterr().out.split("->")[1]


# ----------------------------------------------------------------------
# --obs flags of the other CLIs
# ----------------------------------------------------------------------
def test_experiments_run_obs(tmp_path):
    cwd = os.getcwd()
    os.chdir(str(tmp_path))
    try:
        rc = experiments_main(["run", "quickstart", "--duration", "800",
                               "--quiet", "--obs", str(tmp_path)])
    finally:
        os.chdir(cwd)
    assert rc == 0
    obs_files = glob.glob(str(tmp_path / "OBS_quickstart*p0r0.json"))
    assert obs_files, "experiments --obs wrote no OBS report"


def test_shard_run_obs(tmp_path, capsys):
    rc = shard_main(["run", "quickstart", "--shards", "2",
                     "--duration", "1200", "--obs", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per shard:" in out
    assert "export_q_peak" in out
    obs_files = glob.glob(str(tmp_path / "OBS_quickstart@2shards.json"))
    assert obs_files, "shard --obs wrote no OBS report"
    report = json.load(open(obs_files[0], encoding="utf-8"))
    assert report["n_shards"] == 2
    # The sharded report renders through the same CLI.
    assert obs_main(["summarize", obs_files[0]]) == 0
    assert obs_main(["top", obs_files[0]]) == 0


def test_bench_progress_flag(tmp_path, capsys):
    out = str(tmp_path / "BENCH_p.json")
    rc = bench_main(["ladder", "--rungs", "xs", "--duration", "600",
                     "--progress", "--out", out])
    assert rc == 0
    assert os.path.exists(out)
