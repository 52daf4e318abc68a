"""Exact work counters of the delivery hot path, gated by equality.

ROADMAP item 1: "deterministic work counters ... gated by *exact
equality* in CI: any PR that changes algorithmic work per delivery is
flagged with zero noise".  ``tests/data/hotpath_counts.json`` holds the
counts of four pinned perfbench workloads (default seeds, ``--quick``
windows); this test recomputes them with perfbench's own shims and
set-up and compares every row.  Regenerate with
``tests/regen_hotpath_counts.py`` only after an *intentional* change of
the event population — never to make an optimization "pass".
"""

from __future__ import annotations

import json
import os

import pytest

from perfbench import measure
from perfbench.layers import _snapshot
from perfbench.tracing import Tracer
from perfbench.workloads import get

COUNTS_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "hotpath_counts.json")

WORKLOADS = ("fanout_wide", "token_small", "lossy_churn", "roaming_clean")

_MQ_WQ_OPS = ("MessageQueue.insert", "MessageQueue.mark_delivered",
              "MessageQueue.advance_front", "MessageQueue.prune",
              "WorkingQueue.insert", "WorkingQueue.remove")


def hotpath_counts(workload: str) -> dict:
    """The python-version-independent exact rows of one quick window."""
    wl = get(workload)
    spec = wl.spec(wl.default_seed, quick=True)
    _, end = wl.window(quick=True)
    scenario, _, _ = measure.sim_setup(spec, wl.warmup_edges())
    sim, net = scenario.sim, scenario.net
    join_events, dl0 = sim.events_processed, net.total_app_deliveries()
    before, compactions0 = _snapshot(net), sim.compactions
    with Tracer() as tracer:
        sim.run(until=end)
    delta = {k: v - before[k] for k, v in _snapshot(net).items()}
    counts = {
        "join_events": join_events,
        "events": sim.events_processed - join_events,
        "deliveries": net.total_app_deliveries() - dl0,
        "schedules": tracer.count("Simulator.schedule_at",
                                  "Simulator.schedule_keyed"),
        "effective_cancels": tracer.effective_cancels,
        "peak_heap": sim.peak_heap,
        "compactions": sim.compactions - compactions0,
        "messages_sent": delta["fabric_sent"],
        "messages_dropped": delta["fabric_dropped"],
        "segments_sent": delta["sent"],
        "segments_retransmitted": delta["retransmitted"],
        "segments_duplicate": delta["duplicates"],
        "segments_gave_up": delta["gave_up"],
        "trace_emits": tracer.count("TraceBus.emit"),
    }
    for op in _MQ_WQ_OPS:
        counts[op] = tracer.count(op)
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_work_counters_match_the_committed_counts(workload):
    with open(COUNTS_PATH, encoding="utf-8") as fh:
        committed = json.load(fh)[workload]
    assert hotpath_counts(workload) == committed
