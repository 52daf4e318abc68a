"""The per-child pump's fixed-point invariant, as an oracle that can fail.

``DeliveringMixin`` pumps only the child whose window moved when an ack
or give-up arrives, on the argument (see ``_pump``) that after every
event no *other* child of any NE is sendable.  This test does not trust
the argument: it records each scenario twice — once plain, once with a
post-dispatch hook that runs the full ``try_deliver()`` scan on every
started NE after **every** event — and demands the two canonical traces
be byte-identical and the transports' send totals equal.  If any path
ever leaves a sendable child un-pumped, the extra full scan sends it
earlier than the plain run does and the traces diverge.
"""

from __future__ import annotations

import pytest

from repro.experiments import registry
from repro.experiments.runner import observed_scenario
from repro.sim.engine import Simulator
from repro.validation.record import TraceRecorder, first_divergence

DURATION_MS = 2500.0

#: Clean fan-out, handoff churn (register / unregister / catch-up), and
#: burst loss on the access links (retransmission, give-up, tombstones).
SCENARIOS = ("quickstart", "handoff_storm", "gilbert_elliott_access")

#: ``delivery_window`` values: the default, which these loads never
#: fill, and 1, where every second message waits for the ack before it
#: — the setting under which a skipped pump shows.
WINDOWS = (16, 1)


def _record(name: str, window: int, monkeypatch,
            full_scan_after_every_event: bool):
    spec = registry.get(name)
    spec = spec.with_overrides({
        "duration_ms": DURATION_MS,
        "protocol.delivery_window": window,
        "warmup_ms": min(spec.warmup_ms, DURATION_MS / 2)})
    rec = TraceRecorder()
    with observed_scenario(spec, rec) as scenario:
        net = scenario.net
        if full_scan_after_every_event:
            execute = Simulator._execute

            def execute_then_scan(sim, ev):
                execute(sim, ev)
                for ne in net.nes.values():
                    if ne.started and ne.alive:
                        ne.try_deliver()

            monkeypatch.setattr(Simulator, "_execute", execute_then_scan)
        scenario.run()
        monkeypatch.undo()
        nodes = [*net.nes.values(), *net.mobile_hosts.values(),
                 *net.sources.values()]
        sent = sum(node.chan.stats.sent for node in nodes)
    return rec.lines, sent


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_a_full_scan_after_every_event_changes_nothing(name, window,
                                                       monkeypatch):
    plain_lines, plain_sent = _record(name, window, monkeypatch, False)
    scan_lines, scan_sent = _record(name, window, monkeypatch, True)
    assert plain_sent > 0
    div = first_divergence(plain_lines, scan_lines)
    assert div is None, (
        f"{name} (window {window}): a child was left sendable — the full scan moved the "
        f"trace at {div.describe()}")
    assert scan_sent == plain_sent
