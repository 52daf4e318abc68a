"""The one front door: ``python -m repro``.

Six guarantees, each enforced by a test:

(a) **One parser** — the subcommand list is pinned, every ``<sub>
    --help`` parses, the (subcommand, argument) count has a ceiling, and
    ``src/repro`` holds one ``ArgumentParser(`` call, one ``__main__.py``
    and no environment-variable read.
(b) **One meaning per flag** — the backend × observer-flag matrix of
    ``run``: every supported cell writes the artifact it names under the
    same name rule on sim, ``--shards 2`` and ``--live queue``, and
    ``--out`` / ``--csv`` / ``--timing`` write the same run entry on
    all three; every unsupported cell is ``error: ...`` / exit 2 with
    the flag named.
(c) **One observer list** — ``--record`` composes with the other three
    in one simulation and records the bytes ``record_spec`` and the
    sharded backend record; a live recording replays to the verdict the
    online suite gave.
(d) **One meaning per exit code** — 0 ok, 1 a check failed, 2 usage /
    unknown name / unreadable file, 3 OVERLOADED and nothing else.
(e) **``ObsSession`` through the seam** — ``run --obs`` and
    ``run_sharded(spec, 1, obs=True)`` report the same run; the
    constructor form is ``attach`` called for you.
(f) **One reader** — the kind × flag matrix of ``show``: every kind a
    run writes or reads reaches its view, every flag its kind cannot use
    is ``error: PATH: ...`` / exit 2 with the flag named; a damaged or
    wrong-kind file is exit 2 naming it in ``show`` and ``replay``, and
    an empty trace or span stream fails its check.

Plus (b'): a scenario argument is a registry name *or a spec file*,
through the one resolver, on every subcommand that takes one.
"""

from __future__ import annotations

import argparse
import ast
import csv
import json
import os

import pytest

from repro.__main__ import (EXIT_CODES, EXIT_FAILED, EXIT_OVERLOADED,
                            EXIT_USAGE, main, make_parser)
from repro.experiments import registry
from repro.experiments.grid import expand_grid
from repro.experiments.results import RunResult
from repro.experiments.runner import build_scenario, observed_scenario
from repro.live.fabric import QueueFabric
from repro.obs.session import ObsSession
from repro.obs.spans import write_span_events
from repro.shard.runtime import run_sharded
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus, write_trace_lines
from repro.validation import suite as validation_suite
from repro.validation.record import record_spec

from helpers import load_schema, poisoned, validate_report

RUN_ENTRY = load_schema("run_entry.schema.json")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

SUBCOMMANDS = ["list", "run", "sweep", "compare", "live-diff", "fuzz",
               "replay", "ladder", "show"]

#: Ten read-only subcommands became ``show PATH`` and ``replay TRACE
#: [OTHER]`` (18 subcommands and 86 pairs before; 23 and 119 before the
#: seven per-package programs became one).
MAX_SUBCOMMANDS, MAX_PAIRS = 9, 73

DURATION = 600.0
RUN = ["run", "quickstart", "--duration", str(DURATION), "--quiet"]
BACKENDS = {
    "sim": [],
    "shards": ["--shards", "2"],
    "live": ["--live", "queue", "--time-scale", "0.001"],
}
#: ``run`` executes grid point 0, replication 0 on every backend, so
#: every backend names its artifacts after the same run id.
NAME = "quickstart#p0r0"


def _point_spec():
    """The spec ``RUN`` executes (the point's derived seed included)."""
    return expand_grid(registry.resolve("quickstart", DURATION))[0].spec


def _subparsers():
    (action,) = [a for a in make_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# ----------------------------------------------------------------------
# (a) Parser shape
# ----------------------------------------------------------------------
class TestParserShape:
    def test_subcommand_list_is_pinned(self):
        assert list(_subparsers()) == SUBCOMMANDS
        assert len(SUBCOMMANDS) <= MAX_SUBCOMMANDS

    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_parses(self, sub, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([sub, "--help"])
        assert exit_.value.code == 0
        assert f"python -m repro {sub}" in capsys.readouterr().out

    def test_argument_count_has_a_ceiling(self):
        pairs = [(name, action.dest)
                 for name, sub in _subparsers().items()
                 for action in sub._actions
                 if not isinstance(action, argparse._HelpAction)]
        assert len(pairs) <= MAX_PAIRS, len(pairs)

    def test_exit_code_table_is_in_the_help(self):
        assert EXIT_CODES in make_parser().format_help()
        assert (EXIT_FAILED, EXIT_USAGE, EXIT_OVERLOADED) == (1, 2, 3)

    def test_one_parser_one_main_no_environment_knob(self):
        parsers, mains, env_reads = [], [], []
        for dirpath, _, files in os.walk(SRC):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                rel = os.path.relpath(path, SRC)
                if name == "__main__.py":
                    mains.append(rel)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), filename=path)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Call) and "ArgumentParser" in (
                            getattr(node.func, "id", None),
                            getattr(node.func, "attr", None)):
                        parsers.append(f"{rel}:{node.lineno}")
                    elif isinstance(node, ast.Attribute) and node.attr in (
                            "environ", "getenv"):
                        env_reads.append(f"{rel}:{node.lineno}")
        assert mains == ["__main__.py"]
        assert len(parsers) == 1 and parsers[0].startswith("__main__.py:")
        assert env_reads == []


# ----------------------------------------------------------------------
# (b) The backend x flag matrix of ``run``
# ----------------------------------------------------------------------
#: flag -> (the value it takes under ``out``, the files it must write,
#: the subcommand that reads the first of them back).
def _observer(flag: str, out: str):
    return {
        "--check": ([], [], None),
        "--record": ([os.path.join(out, "trace.jsonl")],
                     ["trace.jsonl"], "replay"),
        "--obs": (["--out", os.path.join(out, "run.json")], ["run.json"],
                  "show"),
        "--spans": ([out], [f"SPANS_{NAME}.jsonl.gz",
                            f"CRITPATH_{NAME}.json"], "show"),
    }[flag]


#: backend -> {flag it cannot honour: a value for it}.  ``--out`` /
#: ``--csv`` / ``--timing`` are on every backend: each writes the same
#: run entry.
UNSUPPORTED = {
    "sim": {"--time-scale": ["0.5"], "--max-lag-ms": ["100"]},
    "shards": {"--check": [], "--reps": ["2"], "--jobs": ["2"],
               "--time-scale": ["0.5"], "--max-lag-ms": ["100"]},
    "live": {"--reps": ["2"], "--jobs": ["2"]},
}

#: The artifact flags, as (the argv they take under ``out``, the file
#: they write).  ``--timing`` shapes ``--out``'s file.
ARTIFACTS = {
    "--out": (lambda out: ["--out", os.path.join(out, "r.json")], "r.json"),
    "--csv": (lambda out: ["--csv", os.path.join(out, "r.csv")], "r.csv"),
    "--timing": (lambda out: ["--timing", "--out",
                              os.path.join(out, "r.json")], "r.json"),
}


@pytest.mark.parametrize("backend,flag", [
    (backend, flag) for backend in BACKENDS
    for flag in ("--check", "--record", "--obs", "--spans")
    if flag not in UNSUPPORTED[backend]])
def test_supported_cell_writes_the_artifact_it_names(backend, flag,
                                                     tmp_path, capsys):
    out = str(tmp_path / "out")
    os.makedirs(out)
    value, files, reader = _observer(flag, out)
    assert main(RUN + BACKENDS[backend] + [flag] + value) == 0
    assert sorted(os.listdir(out)) == sorted(files)
    if reader is not None:
        assert main([reader, os.path.join(out, files[0])]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("backend,flag", [
    (backend, flag) for backend, flags in UNSUPPORTED.items()
    for flag in flags])
def test_unsupported_cell_is_exit_2_with_the_flag_named(backend, flag,
                                                        tmp_path,
                                                        monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = RUN + BACKENDS[backend] + [flag] + UNSUPPORTED[backend][flag]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and flag in captured.err
    assert captured.out == "" and os.listdir(tmp_path) == []


@pytest.mark.parametrize("backend,flag", [
    (backend, flag) for backend in BACKENDS for flag in ARTIFACTS])
def test_artifact_cell_writes_and_reads_back_the_run_entry(backend, flag,
                                                           tmp_path, capsys):
    out = str(tmp_path)
    argv, written = ARTIFACTS[flag]
    assert main(RUN + BACKENDS[backend] + argv(out)) == 0
    assert os.listdir(out) == [written]
    path = os.path.join(out, written)
    if written.endswith(".csv"):
        with open(path, newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert (row["name"], row["n"]) == ("quickstart", "1")
        assert float(row["delivered_mean"]) > 0
    else:
        (run,) = json.load(open(path))["runs"]
        assert validate_report(run, RUN_ENTRY) == []
        assert run["run_id"] == NAME
        section = {"sim": set(), "shards": {"shard"}, "live": {"live"}}
        assert {"shard", "live"} & set(run) == section[backend]
        timing = flag == "--timing"
        assert ("wall_time_s" in run) == timing
        assert RunResult.from_dict(run).to_dict(include_timing=timing) == run
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("shards", [1, 2])
def test_shards_out_is_the_sequential_artifact_but_its_section(shards,
                                                               tmp_path):
    seq, sharded = str(tmp_path / "seq.json"), str(tmp_path / "sharded.json")
    assert main(RUN + ["--out", seq]) == 0
    assert main(RUN + ["--shards", str(shards), "--out", sharded]) == 0
    doc = json.load(open(sharded))
    assert doc["runs"][0].pop("shard")["shards"] == shards
    assert doc == json.load(open(seq))


@pytest.mark.parametrize("backend", BACKENDS)
def test_obs_entry_is_the_plain_entry_plus_its_obs_section(backend,
                                                           tmp_path):
    plain, observed = str(tmp_path / "plain.json"), str(tmp_path / "obs.json")
    assert main(RUN + BACKENDS[backend] + ["--out", plain]) == 0
    assert main(RUN + BACKENDS[backend] + ["--obs", "--out", observed]) == 0
    doc, bare = json.load(open(observed)), json.load(open(plain))
    (run,) = doc["runs"]
    assert validate_report(run, RUN_ENTRY) == []
    assert run.pop("obs")["events"] > 0
    assert "wall_time_s" not in run
    # The backend sections carry wall-clock numbers; the rest is exact.
    for entry in (run, bare["runs"][0]):
        entry.pop("shard", None)
        entry.pop("live", None)
    assert doc == bare


@pytest.mark.parametrize("extra,named", [
    (["--shards", "2", "--live", "queue"], "--live"),
    (["--rate", "0.5"], "--spans"),
    (["--reps", "2", "--record", "t.jsonl"], "--record"),
    (["--obs"], "--out"),
])
def test_contradictory_run_flags_are_exit_2(extra, named, tmp_path,
                                            monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(RUN + extra) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and named in captured.err
    assert os.listdir(tmp_path) == []


def test_set_reaches_every_subcommand_that_takes_a_scenario(spec_file,
                                                           monkeypatch):
    takes_a_scenario = []
    for name, sub in _subparsers().items():
        dests = {a.dest for a in sub._actions}
        if "scenario" in dests:
            assert {"duration", "seed", "set"} <= dests, name
            takes_a_scenario.append(name)
    assert takes_a_scenario == ["run", "sweep", "compare", "live-diff"]
    # ... and means the same for a spec file as for a name: every one of
    # them hands what it parsed to the one resolver, as ``show`` does
    # with its --set (a plan or partition has no duration or seed).
    resolved = []
    monkeypatch.setattr(registry, "resolve",
                        lambda *a: resolved.append(a) or 1 / 0)
    for scenario in ("quickstart", spec_file):
        for name in takes_a_scenario:
            with pytest.raises(ZeroDivisionError):
                main([name, scenario, "--duration", "700", "--seed", "9",
                      "--set", "workload.s=1"])
            assert resolved.pop() == (scenario, 700.0, 9, {"workload.s": 1})
        with pytest.raises(ZeroDivisionError):
            main(["show", scenario, "--shards", "2", "--set", "workload.s=1"])
        assert resolved.pop() == (scenario, None, None, {"workload.s": 1})


# ----------------------------------------------------------------------
# (b') A scenario is a registry name or a spec file
# ----------------------------------------------------------------------
@pytest.fixture
def spec_file(tmp_path):
    """``quickstart`` as data: what ``fuzz --save-traces`` writes."""
    path = tmp_path / "saved.spec.json"
    path.write_text(registry.get("quickstart").to_json() + "\n")
    return str(path)


class TestSpecFileIsAScenario:
    def test_overrides_apply_to_a_file_as_to_a_name(self, spec_file):
        for args in ((), (DURATION,), (DURATION + 5_000.0, 3),
                     (None, None, {"workload.s": 1, "seed": 4}),
                     (500.0, None, {"warmup_ms": 100.0})):
            assert registry.resolve(spec_file, *args) \
                == registry.resolve("quickstart", *args), args
        # The warm-up rule reads the *file's* warm-up, not a registry's.
        assert registry.resolve(spec_file, DURATION).warmup_ms == 0.0

    def test_run_executes_the_file_as_written(self, spec_file, tmp_path):
        """A saved failure is a resolved point: run alone, its seed is
        the run's (a name's runs draw derived replication seeds)."""
        spec = registry.resolve(spec_file, DURATION)
        out, trace = str(tmp_path / "x.json"), tmp_path / "t.jsonl"
        assert main(["run", spec_file, "--duration", str(DURATION),
                     "--quiet", "--check", "--record", str(trace),
                     "--out", out]) == 0
        assert trace.read_text() == "".join(
            line + "\n" for line in record_spec(spec).lines)
        (run,) = json.load(open(out))["runs"]
        assert (run["run_id"], run["seed"]) == (NAME, spec.seed)
        # Replications derive their seeds from it, as for a name.
        assert main(["run", spec_file, "--duration", str(DURATION),
                     "--quiet", "--reps", "2", "--out", out]) == 0
        assert [r["seed"] for r in json.load(open(out))["runs"]] == [
            p.seed for p in expand_grid(spec, replications=2)]

    def test_every_scenario_subcommand_takes_the_file(self, spec_file,
                                                      tmp_path, capsys):
        out = str(tmp_path / "sweep.json")
        short = ["--duration", str(DURATION)]
        assert main(["sweep", spec_file, "--param", "seed=1,2", "--reps",
                     "1", "--quiet", "--check", "--out", out] + short) == 0
        doc = json.load(open(out))
        assert [r["seed"] for r in doc["runs"]] == [1, 2]
        assert doc["meta"]["scenario"] == spec_file
        assert main(["compare", spec_file, "--shards", "2"] + short) == 0
        assert "shards=2: byte-identical" in capsys.readouterr().out
        assert main(["show", spec_file, "--shards", "2"]) == 0
        assert "quickstart: " in capsys.readouterr().out
        assert main(["live-diff", spec_file, "--time-scale", "0.001",
                     "--quiet"] + short) == 0
        assert main(["run", spec_file, "--shards", "2", "--quiet"]
                    + short) == 0
        assert main(["run", spec_file, "--quiet"] + BACKENDS["live"]
                    + short) == 0

    def test_show_plan_reads_a_spec_file_and_a_bare_plan(self, tmp_path,
                                                         capsys):
        spec = registry.get("split_brain")
        saved, bare = tmp_path / "s.json", tmp_path / "plan.json"
        saved.write_text(spec.to_json())
        bare.write_text(spec.faults.to_json())
        expected = spec.faults.to_json()
        for source in ("split_brain", str(saved), str(bare)):
            assert main(["show", source, "--json"]) == 0
            assert capsys.readouterr().out.strip() == expected
        # Without --json, a valid plan is its timeline.
        for source in (str(saved), str(bare)):
            assert main(["show", source]) == 0
            assert capsys.readouterr().out.splitlines()[0] == \
                f"{source}: {len(spec.faults)} fault action(s)"

    def test_a_registered_name_beats_a_same_named_file(self, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "quickstart").write_text(
            registry.get("split_brain").to_json())
        assert registry.resolve("quickstart") == registry.get("quickstart")
        assert main(["show", "quickstart"]) == 0
        assert "empty fault plan" in capsys.readouterr().out
        # Unregistered, the same file is found without a .json suffix.
        os.rename("quickstart", "saved")
        assert registry.resolve("saved") == registry.get("split_brain")

    def test_a_sweep_of_a_file_needs_its_axes(self, spec_file, capsys):
        assert main(["sweep", spec_file]) == EXIT_USAGE
        assert "no default sweep" in capsys.readouterr().err

    def test_a_missing_or_invalid_file_is_exit_2(self, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "nope.json"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(
            "error: No such file or directory: nope.json")
        data = registry.get("quickstart").to_dict()
        data["no_such_key"] = 1
        (tmp_path / "typo.json").write_text(json.dumps(data))
        (tmp_path / "garbage.json").write_text("{not json")
        for argv in (["run", "typo.json"], ["compare", "typo.json"]):
            assert main(argv) == EXIT_USAGE
            assert "no_such_key" in capsys.readouterr().err
        # ``show`` reads the file to check it: an invalid one fails.
        assert main(["show", "typo.json"]) == EXIT_FAILED
        err = capsys.readouterr().err
        assert err.startswith("INVALID: ") and "no_such_key" in err
        assert main(["run", "garbage.json"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# (c) One observer list
# ----------------------------------------------------------------------
def test_record_composes_and_is_the_same_bytes_on_sim_and_shards(tmp_path):
    expected = "".join(line + "\n" for line in record_spec(_point_spec()).lines)
    out = str(tmp_path / "out")
    sim, sharded = tmp_path / "sim.jsonl", tmp_path / "sharded.jsonl"
    # All four observers on one simulation: the recording is the bare one.
    os.makedirs(out)
    assert main(RUN + ["--check", "--obs", "--out",
                       os.path.join(out, "run.json"), "--spans", out,
                       "--record", str(sim)]) == 0
    assert len(os.listdir(out)) == 3
    assert main(RUN + ["--shards", "2", "--record", str(sharded)]) == 0
    assert sim.read_text() == expected == sharded.read_text()


def test_live_recording_replays_to_the_online_verdict(tmp_path, capsys):
    trace = str(tmp_path / "live.jsonl")
    assert main(RUN + BACKENDS["live"] + ["--check", "--record", trace]) == 0
    assert main(["replay", trace]) == 0
    assert "no violations" in capsys.readouterr().out


# ----------------------------------------------------------------------
# (d) The exit-code table
# ----------------------------------------------------------------------
@pytest.fixture
def poisoned_suite(monkeypatch):
    """The standard suite, reporting a total-order breach on every
    checked run.  Harvest(check=True) looks the factory up in its module
    per call."""
    monkeypatch.setattr(validation_suite, "suite_for_spec",
                        poisoned(validation_suite.suite_for_spec))


#: A spec file written before crashes joined the fault plan: its
#: ``failures`` section is an unknown key now.
LEGACY_FAILURES_SPEC = "failures.spec.json"


class TestExitCodes:
    def test_a_check_violation_is_1_in_every_checked_command(
            self, poisoned_suite, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        for argv in (
                RUN + ["--check"],
                RUN + BACKENDS["live"] + ["--check"],
                # Overloaded too, but a violation is never reported as 3.
                RUN + BACKENDS["live"] + ["--check", "--max-lag-ms", "1e-9"],
                ["sweep", "quickstart", "--duration", "400", "--quiet",
                 "--param", "workload.rate_per_sec=10", "--reps", "1",
                 "--jobs", "1", "--check", "--out", out],
                ["ladder", "--rungs", "xs", "--duration", "300", "--check",
                 "--out", out]):
            assert main(argv) == EXIT_FAILED, argv
        capsys.readouterr()
        # Unchecked, the same runs are clean: the poison is the suite's.
        assert main(RUN) == 0

    def test_a_failed_artifact_check_is_1(self, tmp_path, capsys):
        clean, other = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(RUN + ["--record", clean]) == 0
        assert main(RUN + ["--seed", "5", "--record", other]) == 0
        assert main(["replay", clean, other]) == EXIT_FAILED

        # One delivery told twice: a dirty trace.
        with open(clean) as fh:
            lines = fh.read().splitlines()
        dirty = str(tmp_path / "dirty.jsonl")
        with open(dirty, "w") as fh:
            last = [ln for ln in lines if '"k":"mh.deliver"' in ln][-1]
            fh.write("\n".join(lines + [last]) + "\n")
        assert main(["replay", clean]) == 0
        assert main(["replay", dirty]) == EXIT_FAILED

        # A delivery whose message was never sent: an unrooted tree.
        unrooted = str(tmp_path / "SPANS_unrooted.jsonl.gz")
        write_span_events(unrooted, [("dlv", 9.0, "mh:0", "src:0", 1, 1, 2.0)])
        assert main(["show", unrooted]) == EXIT_FAILED

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(
            {"actions": [{"kind": "partition", "at_ms": 1.0,
                          "groups": [["a"]]}]}))
        assert main(["show", str(plan)]) == EXIT_FAILED
        assert "INVALID" in capsys.readouterr().err

    def test_a_dead_wire_is_1_on_every_live_run(self, monkeypatch, capsys):
        """What ``udp-smoke`` alone used to check: sources sent, nothing
        crossed the fabric."""
        monkeypatch.setattr(QueueFabric, "_dispatch",
                            lambda self, dst, msg, delay: None)
        assert main(RUN + BACKENDS["live"]) == EXIT_FAILED
        assert "no traffic crossed the wire" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "no_such_scenario"],
        ["show", "no_such_scenario", "--shards", "2"],
        ["compare", "no_such_scenario"],
        ["run", "quickstart", "--set", "hierarchy.n_br=0"],
        ["run", "quickstart", "--set", "hierarchy.ags_per_br=0"],
        ["run", "quickstart", "--set", "hierarchy.ring_size=0"],
        ["run", "quickstart", "--set", "no.such.field=1"],
        ["ladder", "--rungs", "no_such_rung"],
        ["replay", "no_such_file.jsonl"],
        ["replay", "no_such_file.jsonl", "no_such_file.jsonl"],
        ["show", "no_such_file.json"],
        ["show", "no_such_file.json", "--top", "5"],
        ["show", "no_such_file.jsonl.gz", "--timeline", "5"],
        ["show", "no_such_file.jsonl"],
        ["show", "no_such_file.jsonl.gz", "--perfetto", "t.json"],
        ["show", "no_such_file.json", "--json"],
        ["run", "quickstart", "--set", "hierarchy.n_br=abc"],
        ["show", "quickstart", "--shards", "2", "--set", "hierarchy.n_br=abc"],
        ["run", "quickstart", "--set", "protocol.tau=abc"],
        ["run", LEGACY_FAILURES_SPEC],
    ])
    def test_unknown_names_invalid_specs_and_unreadable_files_are_2(
            self, argv, tmp_path, monkeypatch, capsys):
        # tests/test_run_pipeline.py holds the rows the retired programs
        # had; these are the subcommands that had no such row.
        monkeypatch.chdir(tmp_path)
        # A spec file from before crashes joined the fault plan.
        (tmp_path / LEGACY_FAILURES_SPEC).write_text(json.dumps(
            {"name": "legacy", "failures": [
                {"at_ms": 5.0, "kind": "crash", "target": "br:0",
                 "target2": None}]}))
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err and captured.out == ""
        if LEGACY_FAILURES_SPEC in argv:
            assert "'failures'" in captured.err
        if argv[-1].startswith("hierarchy.") and argv[-1].endswith("=0"):
            field = argv[-1][len("hierarchy."):-len("=0")]
            assert captured.err == f"error: {field} must be >= 1\n"

    def test_a_wrong_typed_set_names_its_field(self, capsys):
        assert main(["run", "quickstart", "--set",
                     "hierarchy.n_br=abc"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: hierarchy.n_br: expected a number, got 'abc'\n")

    @pytest.mark.parametrize("argv", [
        [], ["no-such-subcommand"], ["run", "--no-such-flag"],
        ["run", "quickstart", "--live", "carrier-pigeon"],
        ["replay", "x.jsonl", "--system", "no_such_system"],
    ])
    def test_usage_errors_are_argparse_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == EXIT_USAGE
        assert "usage: python -m repro" in capsys.readouterr().err

    def test_overloaded_is_3_and_only_a_live_run_returns_it(self, capsys):
        argv = RUN + BACKENDS["live"]
        assert main(argv + ["--max-lag-ms", "1e-9"]) == EXIT_OVERLOADED
        assert "OVERLOADED" in capsys.readouterr().err
        assert main(argv + ["--max-lag-ms", "1e12"]) == 0


# ----------------------------------------------------------------------
# (e) ObsSession through the seam
# ----------------------------------------------------------------------
#: Report fields that are exact (not ``name``, ``wall_s`` or the
#: profiler's timings).
EXACT_FIELDS = ("events", "windows", "engine", "trace_counts", "horizon_ms",
                "window_ms", "sample_every")


def _exact(report, rows):
    return ({k: report[k] for k in EXACT_FIELDS},
            report["histograms"],
            [{k: row.get(k) for k in ("w", "t0", "t1", "events", "kinds")}
             for row in rows])


def test_run_obs_reports_what_the_shards_1_path_reports(tmp_path):
    out = str(tmp_path / "run.json")
    assert main(RUN + ["--obs", "--out", out]) == 0
    (run,) = json.load(open(out))["runs"]
    cli = _exact(run["obs"], run["obs"]["timeline"])
    result = run_sharded(_point_spec(), 1, obs=True)
    assert cli == _exact(result.obs_report, result.obs_report["timeline"])
    assert cli[0]["events"] > 0 and cli[0]["trace_counts"]["mh.join"] == 24


class TestObsSessionIsAnObserver:
    SPEC = registry.resolve("quickstart", DURATION)

    def _session(self, sim=None):
        return ObsSession(sim, horizon_ms=self.SPEC.duration_ms, name="q")

    def _through_the_seam(self):
        session = self._session()
        with observed_scenario(self.SPEC, session) as scenario:
            assert scenario.sim.obs_hook is session
            scenario.run()
        assert scenario.sim.obs_hook is None
        return session

    def test_constructor_form_is_attach_called_for_you(self):
        seam = self._through_the_seam()
        # perfbench's call, on a runtime that has not built yet.
        sim = Simulator(seed=self.SPEC.seed)
        by_hand = self._session(sim)
        assert sim.obs_hook is by_hand
        build_scenario(self.SPEC, sim=sim).run()
        assert _exact(by_hand.report(), by_hand.rows) \
            == _exact(seam.report(), seam.rows)
        assert sim.obs_hook is None

    def test_attached_after_the_build_only_window_0_differs(self):
        """What moved in an ``obs`` section when the four callers stopped
        attaching by hand after the build: window 0 and ``trace_counts``
        gained what the build emitted.  Nothing else."""
        seam = self._through_the_seam()
        sim = Simulator(seed=self.SPEC.seed)
        scenario = build_scenario(self.SPEC, sim=sim)
        late = self._session(sim)
        scenario.run()
        early_report, late_report = seam.report(), late.report()
        assert late.rows[1:] == seam.rows[1:]
        moved = {k for k in seam.rows[0]
                 if seam.rows[0][k] != late.rows[0].get(k)}
        assert moved == {"kinds"}
        assert seam.rows[0]["kinds"]["mh.join"] == 24
        assert "mh.join" not in late.rows[0].get("kinds", {})
        differing = {k for k in EXACT_FIELDS
                     if early_report[k] != late_report[k]}
        assert differing == {"trace_counts"}
        assert early_report["wall_s"] > 0

    def test_attach_needs_a_runtime_and_happens_once(self):
        with pytest.raises(RuntimeError, match="back-reference"):
            self._session().attach(TraceBus())
        session = self._session(Simulator(seed=1))
        with pytest.raises(RuntimeError, match="already attached"):
            session.attach(Simulator(seed=2).trace)


# ----------------------------------------------------------------------
# (f) ``show``: the kind x flag matrix
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """One file of every kind a run writes or reads, by kind."""
    d = tmp_path_factory.mktemp("written")
    short = ["--duration", str(DURATION), "--quiet"]
    paths = {"artifact": d / "run.json", "artifact_no_obs": d / "plain.json",
             "sharded": d / "sharded.json", "trace": d / "t.jsonl",
             "live_diff": d / "diff.json", "plan": d / "plan.json",
             "spec": d / "split_brain.spec.json"}
    assert main(RUN + ["--obs", "--out", str(paths["artifact"]), "--spans",
                       str(d), "--record", str(paths["trace"])]) == 0
    assert main(RUN + ["--out", str(paths["artifact_no_obs"])]) == 0
    assert main(RUN + ["--shards", "2", "--obs",
                       "--out", str(paths["sharded"])]) == 0
    assert main(["ladder", "--rungs", "xs", "--duration", "300",
                 "--stream-trace", str(d), "--out", str(d / "b.json")]) == 0
    main(["live-diff", "quickstart", "--time-scale", "0.001",
          "--out", str(paths["live_diff"])] + short)
    split_brain = registry.get("split_brain")
    paths["spec"].write_text(split_brain.to_json())
    paths["plan"].write_text(split_brain.faults.to_json())
    paths.update(spans=d / f"SPANS_{NAME}.jsonl.gz",
                 critpath=d / f"CRITPATH_{NAME}.json",
                 trace_gz=d / "xs.jsonl.gz")
    paths = {kind: str(path) for kind, path in paths.items()}
    paths["name"] = "split_brain"
    return paths


#: A value for each of show's flags (``--perfetto`` writes under tmp).
SHOW_FLAGS = {"--json": [], "--shards": ["2"], "--set": ["workload.s=1"],
              "--top": ["3"], "--timeline": ["3"], "--metric": ["ordered"],
              "--perfetto": ["{tmp}/t.json"], "--limit": ["5"]}
_SPANS = ({"--perfetto", "--limit"},
          [([], 0, "completeness: ok"),
           (["--perfetto", "{tmp}/t.json", "--limit", "5"], 0, "wrote ")])
_SPEC = ({"--json", "--shards", "--set"},
         [([], 0, "split_brain"), (["--json"], 0, '"actions"'),
          (["--set", "workload.s=1"], 0, "fault action(s)"),
          (["--shards", "2"], 0, "cut edges"),
          (["--shards", "2", "--json"], 0, '"lookahead_ms"')])
_OBS = {"--top", "--timeline", "--metric"}
#: kind -> (the flags it takes, [(a view's argv, exit code, a line it
#: prints)]).  Every other flag of show's is exit 2, named.
SHOW_KINDS = {
    "artifact": (_OBS, [([], 0, "events over"),
                        (["--top", "3"], 0, "Fabric._arrive"),
                        (["--timeline"], 0, "heap"),
                        (["--timeline", "3", "--metric", "ordered"], 0,
                         "ordered")]),
    "artifact_no_obs": (_OBS, [([], EXIT_USAGE, "no run entry carries")]),
    "sharded": (_OBS, [([], 0, "shards: 2"),
                       (["--top", "3"], 0, "Fabric._arrive"),
                       (["--timeline", "3"], 0, "shard")]),
    "spans": _SPANS, "trace": _SPANS, "trace_gz": _SPANS,
    "critpath": (set(), [([], 0, "critical path")]),
    "live_diff": (set(), [([], 0, "per-stage latency, live vs sim")]),
    "plan": ({"--json"}, [([], 0, "fault action(s)"),
                          (["--json"], 0, '"actions"')]),
    "spec": _SPEC, "name": _SPEC,
}
#: Flags a kind takes only beside another: refused alone (or together
#: with the flag that picks another view).
SHOW_NEEDS = [("artifact", ["--metric", "ordered"], "--metric"),
              ("artifact", ["--top", "3", "--timeline"], "--top"),
              ("spans", ["--limit", "5"], "--limit")]


def _show(argv, tmp_path):
    return [a.replace("{tmp}", str(tmp_path)) for a in argv]


@pytest.mark.parametrize("kind,extra,code,line", [
    pytest.param(kind, extra, code, line,
                 id=f"{kind}-{' '.join(extra[:1]) or 'plain'}-{len(extra)}")
    for kind, (_, views) in SHOW_KINDS.items()
    for extra, code, line in views])
def test_show_reaches_every_kinds_view(kind, extra, code, line, written,
                                       tmp_path, capsys):
    assert main(["show", written[kind]] + _show(extra, tmp_path)) == code
    captured = capsys.readouterr()
    assert line in (captured.out if code == 0 else captured.err)
    assert "Traceback" not in captured.err
    if "--perfetto" in extra:
        assert json.load(open(tmp_path / "t.json"))["traceEvents"]


@pytest.mark.parametrize("kind,argv,flag", [
    pytest.param(kind, argv, flag, id=f"{kind}-{' '.join(argv[::2])}")
    for kind, argv, flag in [
        (kind, [flag] + value, flag)
        for kind, (takes, _) in SHOW_KINDS.items()
        for flag, value in SHOW_FLAGS.items() if flag not in takes]
    + SHOW_NEEDS])
def test_show_refuses_a_flag_its_kind_cannot_use(kind, argv, flag, written,
                                                 tmp_path, capsys):
    assert main(["show", written[kind]] + _show(argv, tmp_path)) \
        == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {written[kind]}: {flag} ")
    assert captured.out == "" and os.listdir(tmp_path) == []


#: (argv over a written kind, what the error says after ``error: PATH:``).
DAMAGED = [
    (["replay", "spans"], "line 1: not a trace record"),  # a span stream
    (["show", "half"], "Compressed file ended"),          # a truncated .gz
    (["replay", "half"], "Compressed file ended"),
    (["show", "trace_gz", "--top", "5"], "--top not supported"),
    (["replay", "artifact"], "line 1: not a trace record"),  # a run artifact
    (["show", "binary"], "can't decode"),                 # not UTF-8 text
    (["show", "runs"], "not a run artifact"),             # damaged JSON
    (["show", "runs", "--timeline"], "not a run artifact's timeline"),
    (["show", "critpath_stub"], "not a CRITPATH or live-diff report"),
    (["show", "array"], "line 1: not a span event"),      # any JSON array
]


@pytest.mark.parametrize("argv,says", [
    pytest.param(argv, says, id=" ".join(argv)) for argv, says in DAMAGED])
def test_a_wrong_kind_or_damaged_file_is_exit_2_naming_it(argv, says, written,
                                                          tmp_path, capsys):
    half, binary = tmp_path / "half.jsonl.gz", tmp_path / "x.jsonl"
    data = open(written["trace_gz"], "rb").read()
    half.write_bytes(data[:len(data) // 2])
    binary.write_bytes(bytes(range(128, 256)))
    runs, stub = tmp_path / "runs.json", tmp_path / "stub.json"
    runs.write_text(json.dumps({"runs": [{"run_id": "r", "obs": 5}]}))
    stub.write_text(json.dumps({"schema": "repro.critpath/v1"}))
    array = tmp_path / "array.jsonl"
    array.write_text("[1,2]\n")
    paths = dict(written, half=str(half), binary=str(binary),
                 runs=str(runs), critpath_stub=str(stub), array=str(array))
    argv = [argv[0], paths[argv[1]]] + argv[2:]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[1]}: ") and says in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["show", "e.jsonl"], ["show", "e.jsonl.gz"],
                                  ["replay", "e.jsonl"],
                                  ["replay", "e.jsonl", "e.jsonl.gz"]],
                         ids=" ".join)
def test_an_empty_file_has_nothing_to_check_and_fails(argv, tmp_path,
                                                      monkeypatch, capsys):
    """An oracle over 0 records proves nothing: it must not pass."""
    monkeypatch.chdir(tmp_path)
    write_trace_lines("e.jsonl", [])
    write_trace_lines("e.jsonl.gz", [])
    assert main(argv) == EXIT_FAILED
    assert "nothing to check" in capsys.readouterr().out
