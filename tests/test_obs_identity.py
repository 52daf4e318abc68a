"""Out-of-band guarantees of repro.obs.

Two properties hold the observability subsystem to its contract:

1. **Zero-callback when disabled, by construction** — no runtime has
   an ``obs`` attribute and no module outside ``repro/obs`` reads one,
   so protocol code has nothing to call: a run without an attached
   :class:`~repro.obs.session.ObsSession` executes no telemetry code.
   The session reads only what the engine and the trace bus count.
2. **Trace identity when enabled** — attaching a session must not move
   a single simulated event: the canonical JSONL stream of an observed
   run is byte-identical to the unobserved stream, sequentially and on
   the space-parallel backend at 2 and 4 shards.
"""

import ast
import pathlib

import pytest

import repro
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.live.runtime import LiveRuntime
from repro.obs.session import ObsSession
from repro.runtime.api import Runtime
from repro.shard.runtime import run_sharded
from repro.sim.engine import Simulator
from repro.validation.record import (TraceRecorder, first_divergence,
                                     record_spec)

#: Scenario × horizon matrix for the identity sweep.  Horizons are
#: short for suite speed; identity is compared between two recordings
#: of the *same* spec, so truncation cannot mask a divergence.
SCENARIOS = {
    "quickstart": 1500.0,
    "churn_heavy": 1500.0,
    "degraded_wan": 1500.0,
}


def spec_of(name: str):
    spec = registry.get(name)
    overrides = {"duration_ms": SCENARIOS[name]}
    if spec.warmup_ms >= SCENARIOS[name]:
        overrides["warmup_ms"] = 0.0
    return spec.with_overrides(overrides)


_base_cache = {}


def base_lines(name: str):
    if name not in _base_cache:
        _base_cache[name] = record_spec(spec_of(name)).lines
    return _base_cache[name]


# ----------------------------------------------------------------------
# Property 1: disabled runs execute zero telemetry calls, by construction
# ----------------------------------------------------------------------
#: The names a runtime goes by in this code base (``sim``, ``self.sim``,
#: ``node.sim``, ``self.runtime``, ...).
RUNTIME_NAMES = {"sim", "runtime", "rt"}


def test_no_module_outside_obs_reads_a_runtime_obs():
    """No runtime carries an ``obs`` attribute, and no module outside
    ``repro/obs`` reads one off a runtime (AST-level, so docstrings and
    ``args.obs`` / ``result.obs`` do not false-positive)."""
    assert "obs" not in vars(Runtime)
    assert not hasattr(Simulator(), "obs")
    assert not hasattr(LiveRuntime, "obs")
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.parent.name == "obs":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Attribute) and node.attr == "obs"):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else \
                owner.attr if isinstance(owner, ast.Attribute) else None
            if name in RUNTIME_NAMES:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == [], f"runtime .obs reads: {offenders}"


def test_obs_module_never_emits_or_schedules():
    """Static guard: obs code never calls onto the trace bus or the
    event heap (AST-level, so docstrings don't false-positive)."""
    import inspect
    import repro.obs.critpath
    import repro.obs.profiler
    import repro.obs.report
    import repro.obs.session
    import repro.obs.spans
    forbidden = {"emit", "schedule", "schedule_at", "timer"}
    for mod in (repro.obs.profiler, repro.obs.session, repro.obs.report,
                repro.obs.spans, repro.obs.critpath):
        tree = ast.parse(inspect.getsource(mod))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                assert node.func.attr not in forbidden, \
                    f"{mod.__name__}:{node.lineno} calls .{node.func.attr}()"


# ----------------------------------------------------------------------
# Property 2: enabled runs are trace-identical, sequential and sharded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sequential_identity_obs_on_vs_off(name):
    spec = spec_of(name)
    sim = Simulator(seed=spec.seed)
    rec = TraceRecorder(sim.trace)
    scenario = build_scenario(spec, sim=sim)
    session = ObsSession(sim, horizon_ms=spec.duration_ms, name=name)
    scenario.run()
    session.finish()
    div = first_divergence(base_lines(name), rec.lines)
    assert div is None, f"{name}: obs-enabled run diverged at " \
                        f"{div.describe()}"
    assert session.report()["events"] > 0


@pytest.mark.parametrize("shards", [2, 4])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_sharded_identity_obs_on_vs_off(name, shards):
    spec = spec_of(name)
    result = run_sharded(spec, shards, record=True, obs=True)
    div = first_divergence(base_lines(name), result.merged_lines or [])
    assert div is None, f"{name}@{shards}: obs-enabled sharded run " \
                        f"diverged at {div.describe()}"
    report = result.obs_report
    assert report is not None
    assert report["n_shards"] == shards
    assert len(report["shards"]) == shards
    # Per-shard event totals roll up to the run total.
    assert sum(s["events"] for s in report["shards"]) == report["events"]
    # Every shard sub-report carries the window-stall observability.
    for sub in report["shards"]:
        assert "shard_windows" in sub
        assert "stalls" in sub["shard_windows"]
