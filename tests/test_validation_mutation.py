"""Mutation smoke tests: deliberately break invariants, expect alarms.

A conformance harness that never fires is indistinguishable from one
that checks nothing.  These tests break each invariant on purpose —
through the test-only token-drop hook in the real protocol, through
direct state tampering, and through adversarial crafted traces — and
assert the corresponding monitor reports at least one violation.
"""

from repro.core.messages import TokenPass
from repro.experiments import registry, run_point
from repro.faults.driver import FaultDriver
from repro.sim.trace import TraceBus, TraceRecord
from repro.validation.monitor import MonitorSuite
from repro.validation.monitors import (BoundsMonitor, RecoveryMonitor,
                                       TokenMonitor)
from repro.validation.suite import standard_suite

from helpers import small_net


# ---------------------------------------------------------------------------
# Real-protocol mutation: skip a token pass (the hook in OrderingMixin)
# ---------------------------------------------------------------------------
def test_dropped_token_pass_trips_liveness_monitor():
    sim, net = small_net(seed=3)
    token_mon = TokenMonitor().attach(sim.trace)
    recovery_mon = RecoveryMonitor().attach(sim.trace)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()

    def sabotage():
        # Whoever passes next silently drops the token.  No topology
        # change accompanies it, so the membership layer never raises
        # Token-Loss and ordering halts for good.
        for ne in net.top_ring_nes():
            ne._test_drop_token_passes = 1

    sim.schedule_at(1_500.0, sabotage)
    sim.run(until=6_000.0)
    token_mon.finish(net=net, end_time=sim.now)
    recovery_mon.finish(net=net, end_time=sim.now)
    token_mon.detach()
    recovery_mon.detach()

    assert sim.trace.counts.get("test.token_dropped", 0) == 1
    assert any("liveness" in v for v in token_mon.violations)
    # Sanity: before the sabotage the same run was healthy.
    assert token_mon.holds > 0


def test_healthy_run_with_hook_unarmed_stays_clean():
    sim, net = small_net(seed=3)
    token_mon = TokenMonitor().attach(sim.trace)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=4_000.0)
    token_mon.finish(net=net, end_time=sim.now)
    token_mon.detach()
    assert token_mon.ok


# ---------------------------------------------------------------------------
# Real-protocol mutation: regress a live token's NextGlobalSeqNo
# ---------------------------------------------------------------------------
def test_token_gseq_regression_trips_token_monitor():
    sim, net = small_net(seed=5)
    token_mon = TokenMonitor().attach(sim.trace)
    src = net.add_source(rate_per_sec=30)
    net.start()
    src.start()

    def tamper():
        holder = next((ne for ne in net.top_ring_nes()
                       if ne.held_token is not None), None)
        if holder is None:  # token in transit: try again shortly
            sim.schedule(1.0, tamper)
            return
        holder.held_token.next_global_seq = max(
            0, holder.held_token.next_global_seq - 10)

    sim.schedule_at(2_000.0, tamper)
    sim.run(until=4_000.0)
    token_mon.finish(net=net, end_time=sim.now)
    token_mon.detach()
    assert any("regressed" in v for v in token_mon.violations)


# ---------------------------------------------------------------------------
# State tampering: unbounded channel state
# ---------------------------------------------------------------------------
def test_inflated_channel_state_trips_bounds_monitor():
    sim, net = small_net(seed=3)
    mon = BoundsMonitor().attach(sim.trace)
    net.start()
    sim.run(until=500.0)
    ne = next(iter(net.nes.values()))
    ne.chan._peer("mh:ghost").peak = 10 ** 6
    mon.finish(net=net, end_time=sim.now)
    mon.detach()
    assert any("exceeds limit" in v for v in mon.violations)


# ---------------------------------------------------------------------------
# Adversarial trace: every monitor in the standard suite can fire
# ---------------------------------------------------------------------------
def _adversarial_records():
    """A stream violating every monitored invariant at least once."""
    recs = [
        # Membership: delivery after leave.
        TraceRecord(0.0, "mh.join", {"mh": "mh:a", "ap": "ap:0"}),
        TraceRecord(1.0, "mh.member", {"mh": "mh:a", "base": -1}),
        TraceRecord(2.0, "mh.deliver", {"mh": "mh:a", "gseq": 0,
                                        "source": "s", "local_seq": 0}),
        TraceRecord(3.0, "mh.leave", {"mh": "mh:a", "ap": "ap:0"}),
        TraceRecord(4.0, "mh.deliver", {"mh": "mh:a", "gseq": 1,
                                        "source": "s", "local_seq": 1}),
        # Total order: the same gseq carries two different messages.
        TraceRecord(5.0, "mh.join", {"mh": "mh:b", "ap": "ap:1"}),
        TraceRecord(5.5, "mh.member", {"mh": "mh:b", "base": -1}),
        TraceRecord(6.0, "mh.deliver", {"mh": "mh:b", "gseq": 0,
                                        "source": "s2", "local_seq": 7}),
        # Token: a destroyed lineage circulates again.
        TraceRecord(7.0, "token.destroyed", {"node": "br:0",
                                             "token_id": (1, "br:0")}),
        TraceRecord(8.0, "token.hold", {"node": "br:1", "next_gseq": 0,
                                        "token_id": (1, "br:0")}),
        # Handoff: resume skips sequences with no tombstone.
        TraceRecord(9.0, "mh.handoff", {"mh": "mh:b", "old": "ap:1",
                                        "new": "ap:2", "front": 0}),
        TraceRecord(10.0, "mh.deliver", {"mh": "mh:b", "gseq": 5,
                                         "source": "s2", "local_seq": 9}),
        # Partition recovery: the token held before a partition never
        # holds again after its heal.
        TraceRecord(11.0, "fault.partition", {"index": 0,
                                              "direction": "both",
                                              "group_sizes": [1, 1],
                                              "heal_at": 12.0}),
        TraceRecord(12.0, "fault.heal", {"index": 0}),
        # Recovery: a crash after which nothing ever resumes.
        TraceRecord(5_000.0, "fault.crash", {"node": "br:2"}),
        TraceRecord(20_000.0, "source.send", {"source": "src:0",
                                              "local_seq": 99}),
    ]
    return recs


def test_every_monitor_in_the_suite_has_teeth():
    suite = standard_suite("ringnet", liveness_window_ms=1_000.0,
                           recovery_window_ms=1_000.0)
    bus = TraceBus()
    suite.attach(bus)
    for rec in _adversarial_records():
        bus.emit(rec.time, rec.kind, **rec.attrs)

    # Bounds needs simulated network state: a tiny net with one channel
    # poked far past any configured ceiling.
    sim, net = small_net(seed=1)
    next(iter(net.nes.values())).chan._peer("x").peak = 10 ** 6

    suite.finish(net=net, end_time=20_000.0)
    suite.detach()

    fired = {m.name for m in suite if not m.ok}
    assert fired == {"token", "handoff", "total_order", "membership",
                     "bounds", "recovery"}
    # And each produced a diagnosable message.
    for m in suite:
        assert all(isinstance(v, str) and v for v in m.violations)


# ---------------------------------------------------------------------------
# Real-protocol mutation: a heal that leaves the partition installed
# ---------------------------------------------------------------------------
def test_a_heal_that_keeps_the_partition_trips_partition_recovery(
        monkeypatch):
    spec = registry.get("split_brain")
    healthy = run_point(spec, check=True)
    assert healthy.violations == []

    def heal_in_name_only(self, index):
        self.sim.trace.emit(self.sim.now, "fault.heal",
                            index=self._base + index)

    monkeypatch.setattr(FaultDriver, "_heal", heal_in_name_only)
    broken = run_point(spec, check=True)
    for what in ("token", "deliveries"):
        assert (f"recovery: {what} did not resume within 3000 ms "
                f"of the heal of partition 0 at t=1250.0"
                in broken.violations), broken.violations
    assert broken.delivered < healthy.delivered


def test_validity_checker_flags_never_sent_message():
    from repro.metrics.order_checker import OrderChecker
    bus = TraceBus()
    checker = OrderChecker(bus, check_validity=True)
    bus.emit(0.0, "mh.join", mh="mh:a", ap="ap:0")
    bus.emit(1.0, "mh.member", mh="mh:a", base=-1)
    bus.emit(2.0, "mh.deliver", mh="mh:a", gseq=0, source="src:ghost",
             local_seq=0)
    assert any("never-sent" in v for v in checker.violations)
    checker.detach()
    assert bus.subscriber_count == 0


def test_monitor_suite_context_manager_detaches_after_mutation_run():
    bus = TraceBus()
    with MonitorSuite([TokenMonitor(), BoundsMonitor()]).attach(bus) as suite:
        bus.emit(0.0, "token.hold", node="br:0", next_gseq=3,
                 token_id=(0, "br:0"))
        bus.emit(1.0, "token.hold", node="br:1", next_gseq=1,
                 token_id=(0, "br:0"))
    assert bus.subscriber_count == 0
    assert not suite.get("token").ok
