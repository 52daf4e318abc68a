"""Scenario helpers shared by protocol-level tests."""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.experiments import registry
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape


#: Horizons (ms) the goldens under ``tests/data/seed_traces/`` were
#: recorded at.  Trimmed for suite speed, but always covering every
#: scheduled crash of the scenario (failure_drill crashes at
#: 3000/6000, correlated_ap_failures at 5000).  Every fault-plan
#: scenario (split_brain & co.) activates all of its actions inside the
#: default horizon — asserted by tests/test_faults_scenarios.py — so the
#: sharded-identity runs exercise partitions, degradation, flapping, and
#: burst loss too.
GOLDEN_DURATIONS = {
    "failure_drill": 7000.0,
    "correlated_ap_failures": 6000.0,
}
GOLDEN_DEFAULT_DURATION = 2500.0


def golden_spec(name: str):
    """Registry scenario ``name`` exactly as its golden was recorded."""
    duration = GOLDEN_DURATIONS.get(name, GOLDEN_DEFAULT_DURATION)
    spec = registry.get(name)
    overrides = {"duration_ms": duration}
    if spec.warmup_ms >= duration:
        overrides["warmup_ms"] = duration / 2
    return spec.with_overrides(overrides)


def small_net(
    seed: int = 1,
    n_br: int = 3,
    ags_per_br: int = 2,
    aps_per_ag: int = 2,
    mhs_per_ap: int = 1,
    cfg: Optional[ProtocolConfig] = None,
) -> Tuple[Simulator, RingNet]:
    """A compact RingNet instance ready to start."""
    sim = Simulator(seed=seed)
    spec = HierarchyShape(n_br=n_br, ags_per_br=ags_per_br,
                          aps_per_ag=aps_per_ag, mhs_per_ap=mhs_per_ap)
    net = RingNet.build(sim, spec, cfg=cfg)
    return sim, net


def run_with_traffic(
    seed: int = 1,
    n_sources: int = 1,
    rate: float = 20.0,
    until: float = 5_000.0,
    check_order: bool = True,
    **net_kw,
) -> Tuple[Simulator, RingNet, Optional[OrderChecker]]:
    """Build, start, attach sources, run, and (optionally) verify order."""
    sim, net = small_net(seed=seed, **net_kw)
    checker = OrderChecker(sim.trace) if check_order else None
    top = net.hierarchy.top_ring.members
    sources = [net.add_source(corresponding=top[i % len(top)], rate_per_sec=rate)
               for i in range(n_sources)]
    net.start()
    for s in sources:
        s.start()
    sim.run(until=until)
    if checker is not None:
        checker.assert_ok()
    return sim, net, checker


def spec_path(name: str) -> str:
    """A committed spec file under ``tests/data/specs/``."""
    return os.path.join(os.path.dirname(__file__), "data", "specs", name)


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "number": (int, float),
    "integer": int,
    "boolean": bool,
}


def validate_report(report: Any, schema: Dict[str, Any],
                    path: str = "$") -> List[str]:
    """Check ``report`` against a minimal JSON-Schema-style ``schema``.

    A dependency-free structural check, not a full JSON-Schema engine:
    it supports the subset the committed fixtures use — ``type``,
    ``required``, ``properties``, and ``items`` (and ``$ref``, through
    :func:`load_schema`).  Returns a list of human-readable problems
    (empty = valid).
    """
    problems: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        py = _TYPES[expected]
        if expected == "number" and isinstance(report, bool):
            problems.append(f"{path}: expected number, got bool")
            return problems
        if not isinstance(report, py) or (
                expected == "integer" and isinstance(report, bool)):
            problems.append(
                f"{path}: expected {expected}, got {type(report).__name__}")
            return problems
    if isinstance(report, dict):
        for key in schema.get("required", ()):
            if key not in report:
                problems.append(f"{path}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in report:
                problems.extend(
                    validate_report(report[key], sub, f"{path}.{key}"))
    if isinstance(report, list) and "items" in schema:
        for i, item in enumerate(report):
            problems.extend(
                validate_report(item, schema["items"], f"{path}[{i}]"))
    return problems


def load_schema(name: str) -> dict:
    """A committed schema fixture under ``tests/data/``, every
    ``{"$ref": FILE}`` in it replaced by that fixture — so the live-diff
    report's ``sim`` / ``live`` blocks are checked as run entries."""
    def inline(node):
        if isinstance(node, dict):
            if "$ref" in node:
                return load_schema(node["$ref"])
            return {k: inline(v) for k, v in node.items()}
        return node

    path = os.path.join(os.path.dirname(__file__), "data", name)
    with open(path, encoding="utf-8") as fh:
        return inline(json.load(fh))


def poisoned(suite_factory):
    """``suite_factory``, its suites told at attach that one MH saw gseq
    5 and then gseq 4 — a total-order breach every checked run reports."""
    def factory(spec):
        suite = suite_factory(spec)
        attach = suite.attach

        def attach_and_poison(trace):
            attached = attach(trace)
            for gseq in (5, 4):
                trace.emit(0.0, "mh.deliver", mh="mh:ghost", gseq=gseq,
                           latency=1.0, source="src:ghost", local_seq=gseq,
                           created_at=0.0)
            return attached

        suite.attach = attach_and_poison
        return suite
    return factory
