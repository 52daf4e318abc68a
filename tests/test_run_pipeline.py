"""The one run pipeline: build-and-attach seam, harvest, spec resolver.

Three guarantees, each enforced by a test:

1. **One seam, one harvest** (AST guard) — outside
   ``experiments/runner.py`` no module under ``src/repro`` hands
   ``build_scenario`` a runtime, constructs the standard collectors, or
   finishes a monitor suite, and nobody attaches an ``ObsSession`` at
   construction or finishes an observer by hand.  Every backend and
   harness goes through :func:`observed_scenario` and :class:`Harvest`.
2. **Every backend's observers see the build** — a recording observer
   on the sim path, the ``shards=1`` path, a 2-shard run and a saturated
   queue-fabric live run holds the same build-time ``mh.join`` records.
3. **One harvest means one answer** — ``run_point(check=True)``, the
   harvested ``shards=1`` result and the sim side of ``diff_spec``
   agree exactly, and a live report is that run entry with a ``live``
   section.

Plus the observer contract itself, the run entry's schema fixture and
its optional sections, the one spec resolver's rules, and
the ``error: ...`` / exit 2 contract of every subcommand that resolves
a name or opens a file.
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import replace

import pytest

from repro.experiments import registry
from repro.experiments.results import RunResult, aggregate, export_csv
from repro.experiments.runner import observed_scenario, run_point
from repro.live.builder import NetworkBuilder
from repro.live.diff import diff_spec
from repro.shard.runtime import run_sharded
from repro.validation.record import TraceRecorder

from helpers import load_schema, validate_report

#: The run entry's fields read off the network, not the trace.
NETWORK_FIELDS = ("sent", "delivered", "retransmissions", "members",
                  "peak_buffer")

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")

#: The module that owns the seam and the harvest.
OWNER = os.path.join("experiments", "runner.py")

#: Where ``ObsSession`` lives: ``report()`` may finish itself.
SESSION = os.path.join("obs", "session.py")

#: Monitor-suite assembly constructs the suite's own order checker.
ORDER_CHECKER_ALSO = os.path.join("validation", "suite.py")

COLLECTORS = ("LatencyCollector", "ThroughputCollector", "OrderChecker")

#: Wall seconds per logical second: the live loop never sleeps.
SATURATED = 0.001


def _modules():
    for dirpath, _, files in os.walk(SRC):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                yield os.path.relpath(path, SRC), path


def _callee(node: ast.Call) -> str:
    fn = node.func
    return fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", "")


class TestOneSeamOneHarvest:
    def test_no_second_build_attach_or_harvest_site(self):
        offenders = []
        scanned = 0
        for rel, path in _modules():
            scanned += 1
            if rel == OWNER:
                continue
            with open(path) as fh:
                tree = ast.parse(fh.read(), filename=path)
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _callee(node)
                where = f"{rel}:{node.lineno}"
                if name == "build_scenario" and (len(node.args) > 1
                                                 or node.keywords):
                    offenders.append(f"{where} build_scenario with a runtime")
                elif name in COLLECTORS and not (
                        name == "OrderChecker" and rel == ORDER_CHECKER_ALSO):
                    offenders.append(f"{where} constructs {name}")
                elif (name == "finish"
                      and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name)
                      and node.func.value.id == "suite"):
                    offenders.append(f"{where} suite.finish")
                elif rel != SESSION and (
                        (name == "ObsSession" and node.args)
                        or (name == "finish"
                            and not node.args and not node.keywords)):
                    # A session is built detached and reaches a runtime
                    # as one more name in the seam's argument list,
                    # which also finishes and detaches it.
                    offenders.append(f"{where} hand-rolled {name} lifecycle")
        assert offenders == [], (
            "build / attach / harvest outside experiments/runner.py — go "
            f"through observed_scenario and Harvest instead: {offenders}")
        # If the tree moves, the guard must not silently scan nothing
        # (97 modules today).
        assert scanned >= 90

    def test_the_owner_is_where_the_guard_thinks_it_is(self):
        with open(os.path.join(SRC, OWNER)) as fh:
            calls = [_callee(n) for n in ast.walk(ast.parse(fh.read()))
                     if isinstance(n, ast.Call)]
        assert calls.count("build_scenario") == 1
        for name in COLLECTORS:
            assert calls.count(name) == 1, name


# ----------------------------------------------------------------------
# The observer contract
# ----------------------------------------------------------------------
class _Probe:
    def __init__(self, log, name):
        self.log, self.name = log, name

    def attach(self, trace):
        self.log.append((self.name, "attach", sum(trace.counts.values())))

    def finish(self, net, end_time):
        self.log.append((self.name, "finish", end_time))

    def detach(self):
        self.log.append((self.name, "detach"))


class TestObserverContract:
    SPEC = registry.get("quickstart", duration_ms=300.0, warmup_ms=0.0)

    def test_attach_before_build_finish_then_detach(self):
        log = []
        rec = TraceRecorder()  # an observer without a finish()
        with observed_scenario(self.SPEC, _Probe(log, "a"), None, rec,
                               _Probe(log, "b")) as scenario:
            assert [e[1] for e in log] == ["attach", "attach"]
            assert rec.count > 0, "the build emitted before run()"
            scenario.run()
        assert log == [("a", "attach", 0), ("b", "attach", 0),
                       ("a", "finish", 300.0), ("b", "finish", 300.0),
                       ("a", "detach"), ("b", "detach")]

    def test_failed_body_detaches_without_finishing(self):
        log = []
        with pytest.raises(RuntimeError, match="boom"):
            with observed_scenario(self.SPEC, _Probe(log, "a")):
                raise RuntimeError("boom")
        assert [e[1] for e in log] == ["attach", "detach"]

    def test_seed_mismatch_still_rejected_through_the_seam(self):
        from repro.sim.engine import Simulator
        with pytest.raises(ValueError, match="seed"):
            with observed_scenario(self.SPEC,
                                   sim=Simulator(seed=self.SPEC.seed + 1)):
                pass


# ----------------------------------------------------------------------
# Every backend's observers see the build
# ----------------------------------------------------------------------
def _build_joins(lines):
    out = []
    for line in lines:
        rec = json.loads(line)
        if rec["k"] == "mh.join" and rec["t"] == 0.0:
            out.append(line)
    return out


def test_build_time_joins_reach_the_observer_on_every_backend():
    spec = registry.get("quickstart", duration_ms=1000.0, warmup_ms=0.0)

    sim_rec = TraceRecorder()
    with observed_scenario(spec, sim_rec) as scenario:
        built = list(sim_rec.lines)
        scenario.run()
    joins = _build_joins(built)
    assert len(joins) == 24 == len(scenario.net.mobile_hosts)
    assert _build_joins(sim_rec.lines) == joins, "mh.join at t=0 is build-time"

    for shards in (1, 2):
        lines = run_sharded(spec, shards, record=True).merged_lines
        assert _build_joins(lines) == joins, f"shards={shards}"

    live_rec = TraceRecorder()
    run = NetworkBuilder(spec, fabric="queue", time_scale=SATURATED,
                         monitors=True).build(live_rec)
    assert _build_joins(live_rec.lines) == joins, "live, after build()"
    run.run()
    assert _build_joins(live_rec.lines) == joins
    assert run.violations() == []


# ----------------------------------------------------------------------
# One harvest, one answer
# ----------------------------------------------------------------------
def test_sim_paths_agree_exactly_on_quickstart():
    spec = registry.get("quickstart", duration_ms=2000.0, warmup_ms=500.0)
    checked = run_point(spec, check=True)
    assert checked.violations == []
    assert checked.sent > 0 and checked.delivered > 0 and checked.latency

    unchecked = run_point(spec).to_dict(include_timing=False)
    assert (unchecked
            == {k: v for k, v in checked.to_dict(include_timing=False).items()
                if k != "violations"})

    seq = run_sharded(spec, 1, record=True)
    assert seq.totals == {k: unchecked[k] for k in NETWORK_FIELDS}
    harvested = seq.run_result(spec).to_dict(include_timing=False)
    assert harvested.pop("shard")["shards"] == 1
    assert harvested == unchecked

    report = diff_spec(spec, time_scale=SATURATED)
    assert report["sim"] == unchecked


def test_live_report_is_a_superset_of_the_run_result():
    spec = registry.get("quickstart", duration_ms=600.0, warmup_ms=100.0)
    run = NetworkBuilder(spec, time_scale=SATURATED, monitors=True).build()
    run.run()
    report = run.report()
    # The harvest's run entry, the live section beside its fields, and
    # perfbench's alias of the violations — not a shape of its own.
    assert report == {**run.harvest.result.to_dict(),
                      "live": run.result.live,
                      "monitor_violations": run.violations()}
    assert {"fabric", "lag", "loadgen", "wire"} == set(report["live"])
    assert "backend" not in report
    assert report["violations"] == report["monitor_violations"] == []


# ----------------------------------------------------------------------
# One run entry: RunResult, its optional sections, the schema fixture
# ----------------------------------------------------------------------
class TestRunEntry:
    SCHEMA = load_schema("run_entry.schema.json")

    @staticmethod
    def _entry(**sections):
        return RunResult(run_id="q#p0r0", name="q", sent=3, delivered=5,
                         latency={"mean": 1.0, "p50": 1.0, "p95": 2.0,
                                  "p99": 2.0, "max": 3.0},
                         **sections)

    def test_every_run_of_the_sweep_artifact_is_a_run_entry(self, tmp_path):
        out = str(tmp_path / "sweep.json")
        from repro.__main__ import main
        assert main(["sweep", "quickstart", "--param",
                     "workload.rate_per_sec=10,20", "--reps", "1",
                     "--duration", "400", "--jobs", "1", "--check",
                     "--quiet", "--out", out]) == 0
        with open(out) as fh:
            runs = json.load(fh)["runs"]
        assert len(runs) == 2
        for run in runs:
            assert validate_report(run, self.SCHEMA) == []
            assert run["violations"] == []
            assert not {"live", "shard", "wall_time_s"} & set(run)

    def test_a_run_entry_without_latency_is_a_problem(self):
        entry = self._entry().to_dict()
        assert validate_report(entry, self.SCHEMA) == []
        del entry["latency"]
        assert validate_report(entry, self.SCHEMA) == [
            "$: missing required key 'latency'"]

    def test_sections_round_trip_and_are_absent_when_unset(self):
        live = {"fabric": "queue",
                "loadgen": {"offered_rate_per_sec": 40.0,
                            "achieved_rate_per_sec": 39.9,
                            "total_sent": 3, "samples": 2},
                "lag": {"events": 9, "yields": 1, "max_lag_ms": 0.5,
                        "mean_lag_ms": 0.1, "time_scale": 0.001},
                "wire": {"sent": 4, "dropped": 0, "delivered": 4,
                         "unaccounted": 0, "in_flight": 0, "lost": 0,
                         "foreign": 0}}
        shard = {"shards": 2, "windows": 7, "windows_per_shard": [7, 7]}
        both = self._entry(live=live, shard=shard, violations=[])
        data = both.to_dict()
        assert RunResult.from_dict(data) == both
        assert (data["live"], data["shard"]) == (live, shard)
        assert validate_report({k: v for k, v in data.items()
                                if k != "shard"}, self.SCHEMA) == []
        bare = self._entry().to_dict()
        assert not {"live", "shard", "violations"} & set(bare)
        assert RunResult.from_dict(bare) == self._entry()

    def test_sections_leave_aggregates_and_csv_unchanged(self, tmp_path):
        bare = [self._entry(), replace(self._entry(), replication=1,
                                       delivered=7)]
        dressed = [replace(r, live={"fabric": "udp"},
                           shard={"shards": 4}) for r in bare]
        assert aggregate(dressed) == aggregate(bare)
        paths = [str(tmp_path / "bare.csv"), str(tmp_path / "dressed.csv")]
        export_csv(paths[0], aggregate(bare))
        export_csv(paths[1], aggregate(dressed))
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


# ----------------------------------------------------------------------
# The one resolver
# ----------------------------------------------------------------------
class TestResolve:
    def test_short_duration_zeroes_the_warmup(self):
        base = registry.get("quickstart")
        spec = registry.resolve("quickstart", duration_ms=base.warmup_ms)
        assert (spec.duration_ms, spec.warmup_ms) == (base.warmup_ms, 0.0)

    def test_long_duration_keeps_the_warmup(self):
        base = registry.get("quickstart")
        spec = registry.resolve("quickstart",
                                duration_ms=base.warmup_ms + 1.0)
        assert spec.warmup_ms == base.warmup_ms

    def test_an_explicit_warmup_override_wins(self):
        spec = registry.resolve("quickstart", duration_ms=500.0,
                                overrides={"warmup_ms": 100.0})
        assert spec.warmup_ms == 100.0

    def test_duration_and_seed_win_over_set(self):
        spec = registry.resolve("quickstart", duration_ms=700.0, seed=99,
                                overrides={"duration_ms": 1.0, "seed": 1,
                                           "workload.s": 1})
        assert (spec.duration_ms, spec.seed, spec.workload.s) == (700.0, 99, 1)

    def test_nothing_given_is_the_registry_spec(self):
        assert registry.resolve("campus") == registry.get("campus")


#: (the retired program the row went through — it stays the test id, so
#: each row keeps its history —, what the row is spelled now).
@pytest.mark.parametrize("was,argv", [
    ("repro.experiments", ["run", "no_such_scenario"]),
    ("repro.shard", ["run", "no_such_scenario", "--shards", "2"]),
    ("repro.validation", ["run", "no_such_scenario", "--record", "x"]),
    ("repro.obs", ["show", "no_such_file.jsonl"]),  # reads files only
    ("repro.live", ["run", "no_such_scenario", "--live", "queue"]),
    ("repro.live", ["live-diff", "no_such_scenario"]),
    ("repro.faults", ["show", "no_such_scenario"]),
    ("repro.faults", ["show", "no_such_file.json"]),
])
def test_unknown_scenario_is_error_exit_2_in_every_cli(was, argv, capsys):
    from repro.__main__ import main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: No such file" if "no_such_file" in argv[1]
        else "error: unknown scenario")
    assert "Traceback" not in captured.err and captured.out == ""
