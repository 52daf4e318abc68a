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
   ``shards=1`` result and the sim side of ``diff_spec`` agree exactly.

Plus the observer contract itself, the one spec resolver's rules, and
the ``error: ...`` / exit 2 contract of every subcommand that resolves
a name or opens a file.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.experiments import registry
from repro.experiments.runner import observed_scenario, run_point
from repro.live.builder import NetworkBuilder
from repro.live.diff import diff_spec
from repro.shard.runtime import run_sharded
from repro.validation.record import TraceRecorder

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
        # If the tree moves, the guard must not silently scan nothing.
        assert scanned >= 100

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

    unchecked = run_point(spec)
    assert (unchecked.to_dict(include_timing=False)
            == {k: v for k, v in checked.to_dict(include_timing=False).items()
                if k != "violations"})

    seq = run_sharded(spec, 1)
    assert (seq.sent, seq.deliveries) == (checked.sent, checked.delivered)

    report = diff_spec(spec, time_scale=SATURATED)
    for key in ("sent", "delivered", "latency", "goodput", "sent_rate",
                "order_violations"):
        assert report["sim"][key] == getattr(checked, key), key


def test_live_report_is_a_superset_of_the_run_result():
    spec = registry.get("quickstart", duration_ms=600.0, warmup_ms=100.0)
    run = NetworkBuilder(spec, time_scale=SATURATED, monitors=True).build()
    run.run()
    report = run.report()
    assert set(run.harvest.result.to_dict()) <= set(report)
    assert {"backend", "fabric", "lag", "loadgen",
            "monitor_violations"} <= set(report)
    assert report["violations"] == report["monitor_violations"] == []


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
    ("repro.obs", ["spans", "no_such_file.jsonl"]),  # reads files only
    ("repro.live", ["run", "no_such_scenario", "--live", "queue"]),
    ("repro.live", ["live-diff", "no_such_scenario"]),
    ("repro.faults", ["show-plan", "no_such_scenario"]),
    ("repro.faults", ["validate-plan", "no_such_file.json"]),
])
def test_unknown_scenario_is_error_exit_2_in_every_cli(was, argv, capsys):
    from repro.__main__ import main
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: No such file" if "no_such_file" in argv[1]
        else "error: unknown scenario")
    assert "Traceback" not in captured.err and captured.out == ""
