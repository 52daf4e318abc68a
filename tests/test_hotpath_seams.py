"""Seam guard: the hot path still runs through every shim boundary.

``perfbench`` measures the layers from outside, by installing
class-attribute shims on the calls *into* each layer.  Folding frames
out of the hot path is welcome between those boundaries and forbidden
across them: a fold that bypasses one silently zeroes a per-layer
counter.  This file fails with the boundary's name instead — first
statically (every boundary is still a method of its class), then by
running ``quickstart`` under the shims and checking every shim count
against the code's own counter for the same traffic.
"""

from __future__ import annotations

import pytest

from perfbench.layers import _snapshot
from perfbench.tracing import _BOUNDARIES, _DISPATCH, _OWNED, Tracer
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

SEAMS = sorted({(cls, attr) for cls, attr, _ in _BOUNDARIES + _OWNED}
               | set(_DISPATCH)
               | {(TraceBus, "emit"), (Simulator, "cancel")},
               key=lambda seam: (seam[0].__name__, seam[1]))


@pytest.mark.parametrize(
    "cls, attr", SEAMS, ids=[f"{c.__name__}.{a}" for c, a in SEAMS])
def test_every_shim_boundary_is_a_method_of_its_class(cls, attr):
    owners = [c for c in cls.__mro__ if attr in vars(c)]
    assert owners, f"{cls.__name__}.{attr} is gone: perfbench cannot shim it"
    assert callable(vars(owners[0])[attr])


def test_quickstart_traffic_flows_through_every_boundary():
    scenario = build_scenario(registry.get("quickstart"))
    sim, net = scenario.sim, scenario.net

    def counters():
        snap = _snapshot(net)       # fabric + every channel's counters
        return {"events": sim.events_processed,
                "sent": snap["fabric_sent"],
                "delivered": net.fabric.messages_delivered,
                "segments": snap["sent"]}

    # Build-time work (the initial joins) predates the shims: count from
    # here, and carry the events it left queued into the balance below.
    before, queued = counters(), sim.pending
    with Tracer() as tracer:
        scenario.start()
        sim.run(until=scenario.duration_ms)
    delta = {k: v - before[k] for k, v in counters().items()}
    calls = tracer.count

    assert delta["events"] > 10_000 and delta["segments"] > 1_000
    assert tracer.dispatches == delta["events"], "Simulator._execute"
    # No node crashes in quickstart, so no send is refused at the node.
    assert calls("NetNode.send") == delta["sent"], "NetNode.send"
    assert calls("Fabric.send") == delta["sent"], "Fabric.send"
    assert calls("NetNode.deliver") == delta["delivered"], "NetNode.deliver"
    assert calls("ReliableChannel.send") == delta["segments"], \
        "ReliableChannel.send"
    arrivals = calls("NetworkEntity.on_message", "MobileHost.on_message",
                     "MulticastSource.on_message")
    assert arrivals == delta["delivered"], "on_message"
    assert calls("ReliableChannel.accept") == arrivals, \
        "ReliableChannel.accept"
    # Every admitted event is executed, cancelled while queued, or still
    # live at the end: a heap push that bypasses the shims breaks the sum.
    admitted = calls("Simulator.schedule_at", "Simulator.schedule_keyed")
    assert queued + admitted == (delta["events"] + tracer.effective_cancels
                                 + sim.pending), "schedule_at/schedule_keyed"
