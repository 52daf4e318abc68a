"""Unit tests for the protocol-invariant monitor family."""

import pytest

from repro.metrics.order_checker import OrderChecker
from repro.sim.trace import TraceBus
from repro.validation.monitor import Monitor, MonitorSuite
from repro.validation.monitors import (
    BoundsMonitor,
    HandoffMonitor,
    MembershipMonitor,
    RecoveryMonitor,
    TokenMonitor,
)
from repro.experiments.runner import run_point
from repro.validation.suite import standard_suite


# ---------------------------------------------------------------------------
# Base contract
# ---------------------------------------------------------------------------
def test_monitor_attach_detach_roundtrip():
    bus = TraceBus()
    mon = TokenMonitor()
    base = bus.subscriber_count
    mon.attach(bus)
    assert bus.subscriber_count > base
    mon.detach()
    assert bus.subscriber_count == base


def test_monitor_double_attach_rejected():
    bus = TraceBus()
    mon = TokenMonitor(bus)
    with pytest.raises(RuntimeError):
        mon.attach(bus)


def test_monitor_violation_cap_suppresses():
    class Noisy(Monitor):
        name = "noisy"
        max_violations = 3

    mon = Noisy()
    for i in range(10):
        mon.violation(f"v{i}")
    assert len(mon.violations) == 3
    assert mon.suppressed == 7
    assert mon.violation_count == 10
    assert not mon.ok


def test_suite_rejects_duplicate_names():
    with pytest.raises(ValueError):
        MonitorSuite([TokenMonitor(), TokenMonitor()])


def test_suite_prefixes_violations_and_reports():
    bus = TraceBus()
    suite = MonitorSuite([TokenMonitor(), MembershipMonitor()])
    suite.attach(bus)
    bus.emit(1.0, "mh.deliver", mh="mh:x", gseq=0, source="s", local_seq=0)
    suite.detach()
    vs = suite.all_violations()
    assert len(vs) == 1 and vs[0].startswith("membership: ")
    assert set(suite.report()) == {"token", "membership"}
    with pytest.raises(AssertionError):
        suite.assert_ok()


# ---------------------------------------------------------------------------
# TokenMonitor
# ---------------------------------------------------------------------------
def test_token_monitor_clean_stream_ok():
    bus = TraceBus()
    mon = TokenMonitor(bus)
    tid = (0, "br:0")
    for i, node in enumerate(["br:0", "br:1", "br:2"] * 3):
        bus.emit(float(i), "token.hold", node=node, next_gseq=i,
                 token_id=tid)
        bus.emit(float(i), "ordered", node=node, gseq=i,
                 ordering_node="br:0", local_seq=i, created_at=0.0)
    mon.finish(end_time=9.0)
    assert mon.ok
    assert mon.report()["holds"] == 9


def test_token_monitor_flags_gseq_regression():
    bus = TraceBus()
    mon = TokenMonitor(bus)
    tid = (0, "br:0")
    bus.emit(1.0, "token.hold", node="br:0", next_gseq=10, token_id=tid)
    bus.emit(2.0, "token.hold", node="br:1", next_gseq=4, token_id=tid)
    assert any("regressed" in v for v in mon.violations)


def test_token_monitor_flags_double_mint():
    bus = TraceBus()
    mon = TokenMonitor(bus)
    bus.emit(1.0, "ordered", node="br:0", gseq=5, ordering_node="br:0",
             local_seq=3)
    bus.emit(2.0, "ordered", node="br:1", gseq=5, ordering_node="br:2",
             local_seq=9)
    assert any("uniqueness" in v for v in mon.violations)


def test_token_monitor_flags_destroyed_token_resurrection():
    bus = TraceBus()
    mon = TokenMonitor(bus)
    tid = (1, "br:1")
    bus.emit(1.0, "token.destroyed", node="br:0", token_id=tid)
    bus.emit(2.0, "token.hold", node="br:2", next_gseq=0, token_id=tid)
    assert any("destroyed token" in v for v in mon.violations)


def test_token_monitor_liveness_window():
    bus = TraceBus()
    mon = TokenMonitor(bus, liveness_window_ms=100.0)
    bus.emit(1.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    mon.finish(end_time=5_000.0)
    assert any("liveness" in v for v in mon.violations)


def test_token_monitor_liveness_skipped_without_window_or_holds():
    bus = TraceBus()
    mon = TokenMonitor(bus)           # no window, no net at finish
    bus.emit(1.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    mon.finish(end_time=9_999.0)
    assert mon.ok
    quiet = TokenMonitor(TraceBus(), liveness_window_ms=10.0)
    quiet.finish(end_time=9_999.0)    # no holds ever: nothing to require
    assert quiet.ok


# ---------------------------------------------------------------------------
# MembershipMonitor
# ---------------------------------------------------------------------------
def _join_member(bus, mh="mh:a", ap="ap:0", base=-1, t=0.0):
    bus.emit(t, "mh.join", mh=mh, ap=ap)
    bus.emit(t + 1, "mh.member", mh=mh, base=base)


def test_membership_deliver_after_leave_flagged():
    bus = TraceBus()
    mon = MembershipMonitor(bus)
    _join_member(bus)
    bus.emit(2.0, "mh.deliver", mh="mh:a", gseq=0, source="s", local_seq=0)
    bus.emit(3.0, "mh.leave", mh="mh:a", ap="ap:0")
    bus.emit(4.0, "mh.deliver", mh="mh:a", gseq=1, source="s", local_seq=1)
    assert any("after leaving" in v for v in mon.violations)


def test_membership_deliver_without_join_flagged():
    bus = TraceBus()
    mon = MembershipMonitor(bus)
    bus.emit(1.0, "mh.deliver", mh="mh:ghost", gseq=0, source="s",
             local_seq=0)
    assert any("without ever joining" in v for v in mon.violations)


def test_membership_handoff_rejoin_allowed():
    bus = TraceBus()
    mon = MembershipMonitor(bus)
    _join_member(bus)
    bus.emit(2.0, "mh.leave", mh="mh:a", ap="ap:0")
    bus.emit(3.0, "mh.handoff", mh="mh:a", old="ap:0", new="ap:1", front=-1)
    bus.emit(4.0, "mh.member", mh="mh:a", base=7)
    assert mon.ok


def test_membership_event_view_multi_registration():
    bus = TraceBus()
    mon = MembershipMonitor(bus, settle_ms=100.0)
    _join_member(bus)
    bus.emit(2.0, "ap.register", node="ap:0", mh="mh:a", base=-1,
             joining=True)
    bus.emit(3.0, "ap.register", node="ap:1", mh="mh:a", base=-1,
             joining=False)
    mon.finish(net=None, end_time=1_000.0)
    assert any("registered at 2" in v for v in mon.violations)


def test_membership_settle_window_masks_inflight_state():
    bus = TraceBus()
    mon = MembershipMonitor(bus, settle_ms=500.0)
    _join_member(bus)
    bus.emit(999.0, "ap.register", node="ap:0", mh="mh:a", base=-1,
             joining=True)
    bus.emit(999.5, "ap.register", node="ap:1", mh="mh:a", base=-1,
             joining=False)
    mon.finish(net=None, end_time=1_000.0)  # handoff still settling
    assert mon.ok


# ---------------------------------------------------------------------------
# HandoffMonitor
# ---------------------------------------------------------------------------
def _deliver(bus, gseq, mh="mh:a", t=None):
    bus.emit(t if t is not None else float(gseq), "mh.deliver", mh=mh,
             gseq=gseq, source="s", local_seq=gseq)


def test_handoff_atomic_switch_ok():
    bus = TraceBus()
    mon = HandoffMonitor(bus)
    bus.emit(0.0, "mh.member", mh="mh:a", base=-1)
    for g in range(3):
        _deliver(bus, g)
    bus.emit(3.0, "mh.handoff", mh="mh:a", old="ap:0", new="ap:1", front=2)
    _deliver(bus, 3, t=4.0)
    _deliver(bus, 4, t=5.0)
    assert mon.ok
    assert mon.report()["handoffs"] == 1


def test_handoff_gap_flagged():
    bus = TraceBus()
    mon = HandoffMonitor(bus)
    bus.emit(0.0, "mh.member", mh="mh:a", base=-1)
    for g in range(3):
        _deliver(bus, g)
    bus.emit(3.0, "mh.handoff", mh="mh:a", old="ap:0", new="ap:1", front=2)
    _deliver(bus, 5, t=4.0)  # skipped 3 and 4
    assert any("gap across handoff" in v for v in mon.violations)


def test_handoff_duplicate_flagged():
    bus = TraceBus()
    mon = HandoffMonitor(bus)
    bus.emit(0.0, "mh.member", mh="mh:a", base=-1)
    for g in range(3):
        _deliver(bus, g)
    bus.emit(3.0, "mh.handoff", mh="mh:a", old="ap:0", new="ap:1", front=2)
    _deliver(bus, 1, t=4.0)  # already delivered before the switch
    assert any("duplicate across handoff" in v for v in mon.violations)


def test_handoff_tombstone_resumes_without_gap():
    bus = TraceBus()
    mon = HandoffMonitor(bus)
    bus.emit(0.0, "mh.member", mh="mh:a", base=-1)
    for g in range(3):
        _deliver(bus, g)
    bus.emit(3.0, "mh.handoff", mh="mh:a", old="ap:0", new="ap:1", front=2)
    bus.emit(4.0, "mh.tombstone", mh="mh:a", gseq=3)
    _deliver(bus, 4, t=5.0)
    assert mon.ok


def test_handoff_unknown_front_skips_check():
    bus = TraceBus()
    mon = HandoffMonitor(bus)
    # Baseline-style handoff (front=-1): atomicity unverifiable.
    bus.emit(1.0, "mh.handoff", mh="mh:b", old="ap:0", new="ap:1", front=-1)
    _deliver(bus, 40, mh="mh:b", t=2.0)
    assert mon.ok


# ---------------------------------------------------------------------------
# RecoveryMonitor after a crash
# ---------------------------------------------------------------------------
def test_quiescence_flags_dead_token_after_crash():
    bus = TraceBus()
    mon = RecoveryMonitor(bus, recovery_window_ms=500.0)
    bus.emit(10.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    bus.emit(100.0, "fault.crash", node="br:0")
    bus.emit(5_000.0, "source.send", source="src:0", local_seq=9)
    mon.finish(net=None, end_time=6_000.0)
    assert any("token did not resume" in v for v in mon.violations)
    assert any("deliveries did not resume" in v for v in mon.violations)


def test_quiescence_recovered_run_ok():
    bus = TraceBus()
    mon = RecoveryMonitor(bus, recovery_window_ms=500.0)
    bus.emit(10.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    bus.emit(100.0, "fault.crash", node="br:0")
    bus.emit(200.0, "token.hold", node="br:1", next_gseq=5,
             token_id=(1, "br:1"))
    bus.emit(250.0, "mh.deliver", mh="mh:a", gseq=3, source="s",
             local_seq=3)
    bus.emit(5_000.0, "source.send", source="src:0", local_seq=9)
    mon.finish(net=None, end_time=6_000.0)
    assert mon.ok


def test_quiescence_token_gate_is_per_crash():
    """A crash before the first hold must not disarm later crashes."""
    bus = TraceBus()
    mon = RecoveryMonitor(bus, recovery_window_ms=500.0)
    bus.emit(50.0, "fault.crash", node="ap:0")      # before any hold
    bus.emit(100.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    bus.emit(150.0, "mh.deliver", mh="mh:a", gseq=0, source="s",
             local_seq=0)
    bus.emit(5_000.0, "fault.crash", node="br:0")   # kills the token
    bus.emit(9_000.0, "source.send", source="src:0", local_seq=9)
    mon.finish(net=None, end_time=10_000.0)
    assert any("token did not resume" in v
               and "br:0" in v for v in mon.violations)


def test_quiescence_excuses_fully_orphaned_sources():
    """If every source fed the crashed NE, silence is expected: traffic
    cannot enter the system, so delivery stall is not a violation."""
    from helpers import small_net

    sim, net = small_net(seed=2, n_br=2)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    mon = RecoveryMonitor(sim.trace, recovery_window_ms=400.0)
    net.start()
    src.start()
    sim.schedule_at(500.0, net.crash_ne, "br:0")
    sim.run(until=3_000.0)
    mon.finish(net=net, end_time=sim.now)
    mon.detach()
    assert not any("deliveries did not resume" in v
                   for v in mon.violations)


def test_quiescence_crash_near_end_inside_allowance():
    bus = TraceBus()
    mon = RecoveryMonitor(bus, recovery_window_ms=500.0)
    bus.emit(10.0, "token.hold", node="br:0", next_gseq=0,
             token_id=(0, "br:0"))
    bus.emit(900.0, "fault.crash", node="br:0")
    mon.finish(net=None, end_time=1_000.0)  # only 100 ms elapsed
    assert mon.ok


# ---------------------------------------------------------------------------
# Integration: clean runs stay clean, per system
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scenario,duration", [
    ("quickstart", 2_500.0),
    ("campus", 3_000.0),
    ("churn_heavy", 3_000.0),
    ("failure_drill", 8_000.0),
])
def test_registry_scenarios_conform(scenario, duration):
    from repro.experiments import registry
    spec = registry.get(scenario, **{"duration_ms": duration,
                                     "warmup_ms": 0.0})
    result = run_point(spec, check=True)
    assert result.violations == []
    assert result.delivered > 0


def test_unordered_suite_skips_order_and_token_monitors():
    suite = standard_suite("unordered")
    names = {m.name for m in suite}
    assert "token" not in names and "total_order" not in names
    assert {"membership", "bounds", "recovery"} <= names


def test_ordered_suite_includes_order_checker():
    suite = standard_suite("ringnet")
    assert isinstance(suite.get("total_order"), OrderChecker)


def test_bounds_monitor_counts_give_ups():
    bus = TraceBus()
    mon = BoundsMonitor(bus)
    bus.emit(1.0, "transport.give_up", src="a", dst="b", msg_kind="X")
    assert mon.report()["give_ups"] == 1
    assert mon.ok  # give-ups alone are best-effort, not violations
