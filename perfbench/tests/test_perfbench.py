"""Self-test of the benchmark harness (``--quick`` profile, tier-1).

Covers what a later perf PR relies on without re-reading the harness:
names agree with ``BENCHMARK.json``, the noise-floor estimator does what
it says, the tracing shims are pure observers and come off cleanly,
exact metrics repeat bit-for-bit, a failed check fails the command, and
no quick pass overruns its budget.
"""

from __future__ import annotations

import json
import os
import re

import pytest

from perfbench import ROOT, measure
from repro.validation import suite
from perfbench.__main__ import RUN_SECONDS, main, run_one
from perfbench.metrics import (END_TO_END, EXACT_END_TO_END, PER_LAYER,
                               benchmark_manifest, exact_per_layer)
from perfbench.tracing import KEEP_EVERY, Tracer, installed_shims
from perfbench.workloads import HELD_OUT_SEED, WORKLOADS, get

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

#: No quick pass may take longer than this (the full passes have 30 s).
QUICK_BUDGET_S = 10.0

#: The cheapest workload that still fires RTOs and recovers gaps.
QUICK_WORKLOAD = "lossy_churn"


def test_names_and_manifest_agree_with_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        committed = json.load(fh)
    assert committed == benchmark_manifest(WORKLOADS, RUN_SECONDS)
    names = ([w.name for w in WORKLOADS] + [e[0] for e in END_TO_END]
             + [p[0] for p in PER_LAYER])
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)
    assert any(e[0] == "setup_s" and e[1:3] == ("s", "lower")
               for e in END_TO_END)
    assert all(0 < e[3] <= 0.25 for e in END_TO_END)


def test_slice_min_sum_takes_the_floor_of_every_slice():
    walls = [[1.0, 9.0, 1.0],      # noise hit slice 1
             [9.0, 2.0, 1.5],      # noise hit slice 0
             [1.2, 2.5, 9.0]]      # noise hit slice 2
    assert measure.slice_min_sum(walls) == 1.0 + 2.0 + 1.0
    # Below every whole-window wall, hence below best-of-N too.
    assert measure.slice_min_sum(walls) < min(sum(w) for w in walls)
    assert measure.slice_min_sum([[3.0, 4.0]]) == 7.0
    with pytest.raises(ValueError):
        measure.slice_min_sum([[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        measure.slice_min_sum([])


def test_slice_edges_cover_the_window_exactly():
    for wl in WORKLOADS:
        for quick in (False, True):
            start, end = wl.window(quick)
            edges = wl.slice_edges(quick)
            assert edges[-1] == end and edges[0] > start
            assert edges == sorted(edges)


def _window_counts(wl, traced: bool):
    spec = wl.spec(HELD_OUT_SEED, quick=True)
    scenario, _, _ = measure.sim_setup(spec, wl.warmup_edges())
    sim, net = scenario.sim, scenario.net
    ev0, dl0 = sim.events_processed, net.total_app_deliveries()
    tracer = Tracer()
    if traced:
        tracer.install()
    try:
        sim.run(until=wl.window(quick=True)[1])
    finally:
        tracer.uninstall()
    return (sim.events_processed - ev0, net.total_app_deliveries() - dl0,
            sim.now), tracer


def test_shims_are_pure_observers_and_uninstall_cleanly():
    wl = get(QUICK_WORKLOAD)
    assert installed_shims() == []
    plain, _ = _window_counts(wl, traced=False)
    shimmed, tracer = _window_counts(wl, traced=True)
    assert installed_shims() == []
    assert shimmed == plain
    # The shims saw the run: one dispatch per event, layers add up.
    assert tracer.dispatches == plain[0]
    assert tracer.count("Simulator.run") == 1
    assert tracer.self_s["fabric"] > 0 and tracer.self_s["core"] > 0
    assert tracer.spans and all(s[2] for s in tracer.spans)
    kept_roots = {s[2] for s in tracer.spans}
    assert len(kept_roots) == plain[0] // KEEP_EVERY


def test_exact_metrics_repeat_and_quick_passes_stay_in_budget(
        tmp_path, monkeypatch):
    monkeypatch.setattr(measure, "MIN_REPEATS", 2)
    first, second = (run_one(QUICK_WORKLOAD, HELD_OUT_SEED, 0.0, trace=False,
                             quick=True) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {e[0] for e in END_TO_END}
    for name in EXACT_END_TO_END:
        assert (first["metrics"][name]["value"]
                == second["metrics"][name]["value"]), name
    assert all(m["value"] > 0 for m in first["metrics"].values())

    traced = [run_one(QUICK_WORKLOAD, HELD_OUT_SEED, 0.0, trace=True,
                      quick=True, out_dir=str(tmp_path)) for _ in range(2)]
    assert traced[0]["correct"]
    assert set(traced[0]["metrics"]) == {p[0] for p in PER_LAYER}
    for name in exact_per_layer():
        assert (traced[0]["metrics"][name]["value"]
                == traced[1]["metrics"][name]["value"]), name
    # Same count from the traced and the untraced pass.
    assert (traced[0]["metrics"]["engine.events_per_delivery"]["value"]
            == first["metrics"]["events_per_delivery"]["value"])
    # The layers' self-time shares are shares of one traced wall.
    shares = [m["value"] for n, m in traced[0]["metrics"].items()
              if n.endswith("self_share")]
    assert abs(sum(shares) - 1.0) < 1e-9 and min(shares) >= 0
    spans = tmp_path / f"spans_{QUICK_WORKLOAD}.jsonl"
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    assert rows and {"id", "parent", "root", "name", "layer", "start_us",
                     "end_us"} <= set(rows[0])

    for result in (first, second, *traced):
        assert result["notes"]["elapsed_s"] < QUICK_BUDGET_S


def test_injected_order_violation_fails_the_command(monkeypatch, capsys):
    real_suite_for_spec = suite.suite_for_spec

    def poisoned_suite(spec):
        monitors = real_suite_for_spec(spec)
        attach = monitors.attach

        def attach_and_poison(trace):
            attached = attach(trace)
            # One MH told gseq 5 and then gseq 4: a total-order breach.
            for gseq in (5, 4):
                trace.emit(0.0, "mh.deliver", mh="mh:ghost", gseq=gseq,
                           latency=1.0, source="src:ghost", local_seq=gseq,
                           created_at=0.0)
            return attached

        monitors.attach = attach_and_poison
        return monitors

    # run_point(check=True) looks the factory up in its module per call.
    monkeypatch.setattr(suite, "suite_for_spec", poisoned_suite)
    rc = main(["one", "--workload", "token_small", "--seed", "42",
               "--seconds", "0", "--quick"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["failed"] >= 1 and result["correct"] is False
