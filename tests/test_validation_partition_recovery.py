"""Unit tests for RecoveryMonitor after a partition heal (synthetic
streams)."""

from repro.sim.trace import TraceBus
from repro.validation.monitors import RecoveryMonitor
from repro.validation.suite import standard_suite

WINDOW = 1_000.0


def _monitor():
    bus = TraceBus()
    mon = RecoveryMonitor(recovery_window_ms=WINDOW)
    mon.attach(bus)
    return bus, mon


def _partition(bus, index=0, t=100.0, heal_at=300.0):
    bus.emit(t, "fault.partition", index=index, direction="both",
             group_sizes=[3, 5], heal_at=heal_at)


def test_quiet_without_partitions():
    bus, mon = _monitor()
    bus.emit(1.0, "mh.deliver", mh="mh:x", gseq=0)
    mon.finish(end_time=10_000.0)
    assert mon.ok
    assert mon.report()["partitions"] == 0


def test_healed_partition_with_resumed_delivery_is_clean():
    bus, mon = _monitor()
    bus.emit(50.0, "token.hold", node="br:0", next_gseq=0)
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(400.0, "token.hold", node="br:1", next_gseq=1)
    bus.emit(450.0, "mh.deliver", mh="mh:x", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert mon.ok, mon.violations
    assert mon.report() == {"monitor": "recovery", "crashes": 0,
                            "partitions": 1, "heals": 1, "violations": 0}


def test_partition_that_never_heals_is_flagged():
    bus, mon = _monitor()
    _partition(bus, heal_at=300.0)  # no fault.heal follows
    mon.finish(end_time=6_000.0)
    assert not mon.ok
    assert "never healed" in mon.violations[0]


def test_unbounded_partition_is_not_expected_to_heal():
    bus, mon = _monitor()
    bus.emit(100.0, "fault.partition", index=0, direction="both",
             group_sizes=[3, 5], heal_at=None)
    mon.finish(end_time=6_000.0)
    assert mon.ok


def test_stalled_delivery_after_heal_is_flagged():
    bus, mon = _monitor()
    bus.emit(10.0, "mh.deliver", mh="mh:x", gseq=0)
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(5_000.0, "source.send", source="src:0")  # sources keep going
    mon.finish(end_time=6_000.0)  # ...but nothing was ever delivered
    assert any("deliveries did not resume" in v for v in mon.violations)


def test_stalled_token_after_heal_is_flagged():
    bus, mon = _monitor()
    bus.emit(50.0, "token.hold", node="br:0", next_gseq=0)
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(450.0, "mh.deliver", mh="mh:x", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert any("token did not resume" in v for v in mon.violations)


def test_token_check_disarmed_when_never_rotating():
    """No token.hold before the partition (e.g. unordered system)."""
    bus, mon = _monitor()
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(450.0, "mh.deliver", mh="mh:x", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert mon.ok, mon.violations


def test_each_instant_keeps_its_own_token_gate():
    """A heal's token check counts only the holds seen before its
    partition began; a crash in the same run counts those before it."""
    bus, mon = _monitor()
    _partition(bus)                                  # no hold before it
    bus.emit(200.0, "token.hold", node="br:0", next_gseq=0)
    bus.emit(250.0, "fault.crash", node="br:1")      # one hold before it
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(450.0, "mh.deliver", mh="mh:x", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert mon.violations == [
        "token did not resume within 1000 ms of the crash of br:1 at t=250.0"]
    assert mon.report()["crashes"] == 1


def test_run_ending_inside_recovery_window_is_not_judged():
    bus, mon = _monitor()
    bus.emit(50.0, "token.hold", node="br:0", next_gseq=0)
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(900.0, "source.send", source="src:0")
    mon.finish(end_time=300.0 + WINDOW / 2)
    assert mon.ok


def test_wedged_join_after_heal_is_flagged():
    bus, mon = _monitor()
    bus.emit(50.0, "mh.join", mh="mh:w", ap="ap:0")
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(400.0, "mh.deliver", mh="mh:other", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert any("membership did not re-converge" in v and "mh:w" in v
               for v in mon.violations)


def test_join_confirmed_by_member_or_delivery_is_clean():
    bus, mon = _monitor()
    bus.emit(50.0, "mh.join", mh="mh:a", ap="ap:0")
    bus.emit(60.0, "mh.join", mh="mh:b", ap="ap:0")
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(350.0, "mh.member", mh="mh:a", base=-1)
    bus.emit(400.0, "mh.deliver", mh="mh:b", gseq=1)  # as good as member
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert mon.ok, mon.violations


def test_leave_clears_pending_join():
    bus, mon = _monitor()
    bus.emit(50.0, "mh.join", mh="mh:a", ap="ap:0")
    _partition(bus)
    bus.emit(300.0, "fault.heal", index=0)
    bus.emit(310.0, "mh.leave", mh="mh:a")
    bus.emit(400.0, "mh.deliver", mh="mh:x", gseq=1)
    bus.emit(5_000.0, "source.send", source="src:0")
    mon.finish(end_time=6_000.0)
    assert mon.ok, mon.violations


def test_standard_suite_includes_partition_recovery():
    for system in ("ringnet", "single_ring", "unordered"):
        suite = standard_suite(system)
        assert any(m.name == "recovery" for m in suite)
