"""Tests for the live asyncio backend (`repro.live`).

Covers the wall-clock runtime's seam semantics (the clock, absolute
timer grid, seed parity with the sim engine), both fabrics, the
spec-driven builder, and the sim-vs-live differential harness — whose
report shape is pinned by the committed schema fixture.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import pickle
import random
import socket

import pytest

import repro
from repro.__main__ import EXIT_OVERLOADED, main as cli_main
from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.live.builder import NetworkBuilder
from repro.live.diff import (DEFAULT_TOLERANCES, diff_spec, order_agreement,
                             _count_inversions)
from repro.live.fabric import QueueFabric
from repro.live.runtime import YIELD_EVERY, LiveRuntime
from repro.net.link import LinkSpec
from repro.runtime.timers import PeriodicTimer
from repro.sim.engine import Simulator

from conftest import Ping, Recorder
from helpers import load_schema, validate_report

FAST = 0.02  # wall seconds per logical second: 50x faster than real time


def short_quickstart(duration_ms: float = 1200.0):
    return registry.get("quickstart", duration_ms=duration_ms,
                        warmup_ms=200.0)


# ----------------------------------------------------------------------
# LiveRuntime seam semantics
# ----------------------------------------------------------------------
class TestLiveRuntime:
    def test_time_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            LiveRuntime(time_scale=0.0)
        with pytest.raises(ValueError):
            LiveRuntime(time_scale=-1.0)

    def test_negative_delay_rejected(self):
        rt = LiveRuntime(time_scale=FAST)
        with pytest.raises(ValueError):
            rt.schedule(-1.0, lambda: None)

    def test_frozen_clock_inside_callback(self):
        # At an extreme time scale the loop is always behind the wall
        # clock; the callback must still see its scheduled deadline.
        rt = LiveRuntime(time_scale=0.0001)
        seen = []
        rt.schedule(5.0, lambda: seen.append(rt.now))
        rt.schedule(9.0, lambda: seen.append(rt.now))
        rt.run(until=10.0)
        assert seen == [5.0, 9.0]
        assert rt.now == 10.0  # clock ends at the horizon

    def test_periodic_timer_on_absolute_grid(self):
        rt = LiveRuntime(time_scale=0.0001)
        fires = []
        timer = PeriodicTimer(rt, period=7.0,
                              fn=lambda: fires.append(rt.now), phase=3.0)
        timer.start()
        rt.run(until=31.0)
        # phase + k*period, regardless of how late each tick really ran.
        assert fires == [10.0, 17.0, 24.0, 31.0]

    def test_cancel_and_pending(self):
        rt = LiveRuntime(time_scale=FAST)
        fired = []
        keep = rt.schedule(1.0, lambda: fired.append("keep"))
        drop = rt.schedule(1.0, lambda: fired.append("drop"))
        assert rt.pending == 2
        rt.cancel(drop)
        assert rt.pending == 1
        rt.run(until=2.0)
        assert fired == ["keep"]
        assert keep.cancelled is False

    def test_owner_inheritance_matches_sim(self):
        # Same contract the sim engine implements: scheduled callbacks
        # inherit the scheduling context's owner unless overridden.
        rt = LiveRuntime(time_scale=0.0001)
        owners = []

        def inner():
            owners.append(rt.current_owner)
            rt.schedule(1.0, lambda: owners.append(rt.current_owner))
            rt.schedule(1.0, lambda: owners.append(rt.current_owner),
                        owner="other")

        rt.call_owned("alice", lambda: rt.schedule(1.0, inner))
        rt.run(until=5.0)
        assert owners == ["alice", "alice", "other"]

    def test_rng_streams_match_sim_engine(self):
        # Identical named-stream derivation is what makes the
        # differential harness meaningful: same seed, same draws.
        rt = LiveRuntime(seed=42, time_scale=FAST)
        sim = Simulator(seed=42)
        for name in ("traffic", "mobility", "loss"):
            live_draws = [rt.rng(name).random() for _ in range(5)]
            sim_draws = [sim.rng(name).random() for _ in range(5)]
            assert live_draws == sim_draws

    def test_until_none_drains_heap(self):
        rt = LiveRuntime(time_scale=FAST)
        fired = []
        rt.schedule(1.0, lambda: fired.append(1))
        rt.schedule(3.0, lambda: fired.append(3))
        rt.run()  # no horizon: exit when the heap drains
        assert fired == [1, 3]

    def test_stop_halts_the_loop(self):
        rt = LiveRuntime(time_scale=0.0001)
        fired = []

        def first():
            fired.append(1)
            rt.stop()

        rt.schedule(1.0, first)
        rt.schedule(2.0, lambda: fired.append(2))
        rt.run(until=10.0)
        assert fired == [1]

    def test_lag_report_shape(self):
        rt = LiveRuntime(time_scale=0.0001)
        rt.schedule(1.0, lambda: None)
        rt.run(until=2.0)
        rep = rt.lag_report()
        assert rep["events"] == 1
        assert rep["time_scale"] == 0.0001
        assert rep["max_lag_ms"] >= 0.0
        assert rep["mean_lag_ms"] >= 0.0
        assert rep["yields"] == rt.yields

    def test_sleeps_count_as_yields(self):
        rt = LiveRuntime(time_scale=FAST)
        rt.schedule(50.0, lambda: None)     # 1 ms of wall away
        rt.run(until=1000.0)                # 20 ms
        # One sleep toward the callback, one toward the horizon (more
        # only if a timer fired a clock tick early).
        assert 2 <= rt.lag_report()["yields"] <= 4

    def test_a_failing_service_start_leaves_the_runtime_runnable(self):
        # A bind error on the second service: the first one, which did
        # start, is stopped, and the runtime is not stuck "running".
        rt = LiveRuntime(time_scale=SATURATED)
        calls = []

        class Service:
            def __init__(self, name, fail=False):
                self.name, self.fail = name, fail
                rt.add_service(self)

            async def start(self):
                if self.fail:
                    raise OSError("bind failed")
                calls.append(("start", self.name))

            async def stop(self):
                calls.append(("stop", self.name))

        Service("up")
        broken = Service("broken", fail=True)
        Service("never reached")
        with pytest.raises(OSError, match="bind failed"):
            rt.run(until=5.0)
        assert calls == [("start", "up"), ("stop", "up")]
        assert rt._loop is None and rt._wake is None

        broken.fail = False
        del calls[:]
        fired = []
        rt.schedule_at(1.0, fired.append, 1)
        rt.run(until=5.0)
        assert fired == [1]
        # Stopped in reverse start order.
        assert calls == [("start", "up"), ("start", "broken"),
                         ("start", "never reached"),
                         ("stop", "never reached"), ("stop", "broken"),
                         ("stop", "up")]


# ----------------------------------------------------------------------
# The batched loop: when it yields, and the order that keeps
# ----------------------------------------------------------------------
SATURATED = 0.001   # the loop is always behind the wall clock

#: ``call_soon``s of a run that never yields: ``asyncio.run``'s task
#: start and shutdown (a handful), however many callbacks it runs.
CALL_SOONS_PER_RUN = 10


def _pair(rt: LiveRuntime, latency: float):
    """Two recorders ``a``/``b`` on a queue fabric, one link."""
    fabric = QueueFabric(rt)
    a, b = Recorder(fabric, "a"), Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=latency))
    return fabric, a, b


class _Script:
    """A service whose task acts at wall instants, outside the heap —
    the position a socket receiver is in."""

    def __init__(self, rt: LiveRuntime, steps):
        self.steps = steps      # [(wall seconds from start, fn), ...]
        rt.add_service(self)

    async def start(self) -> None:
        self.task = asyncio.get_running_loop().create_task(self._play())

    async def _play(self) -> None:
        t0 = asyncio.get_running_loop().time()
        for at, fn in self.steps:
            await asyncio.sleep(t0 + at - asyncio.get_running_loop().time())
            fn()

    async def stop(self) -> None:
        self.task.cancel()
        await asyncio.gather(self.task, return_exceptions=True)


@pytest.fixture(scope="module")
def saturated_census():
    """One saturated run with asyncio's own bookkeeping counted: the
    tasks alive at two instants mid-run and every ``call_soon``."""
    run = NetworkBuilder(short_quickstart(), fabric="queue",
                         time_scale=SATURATED).build()
    census = {"run": run, "tasks": [], "call_soons": 0}
    for at in (300.0, 900.0):
        run.runtime.schedule_at(
            at, lambda: census["tasks"].append(len(asyncio.all_tasks())))
    call_soon = asyncio.BaseEventLoop._call_soon

    def counting(loop, *args, **kwargs):
        census["call_soons"] += 1
        return call_soon(loop, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(asyncio.BaseEventLoop, "_call_soon", counting)
        run.run()
    return census


class TestHorizon:
    """Arrivals due by the horizon are flushed before the loop exits;
    later ones are dropped like a heap entry past it."""

    def test_arrival_past_the_horizon_is_dropped(self):
        rt = LiveRuntime(time_scale=SATURATED)
        fabric, a, b = _pair(rt, latency=4.0)
        rt.schedule(5.0, a.send, "b", Ping(1))      # due 9 <= 10
        rt.schedule(6.0, a.send, "b", Ping(2))      # due 10: inclusive
        rt.schedule(7.0, a.send, "b", Ping(3))      # due 11 > 10
        rt.run(until=10.0)
        assert [m.n for m in b.received] == [1, 2]
        assert fabric.messages_sent == 3
        assert fabric.messages_delivered == 2
        assert rt.now == 10.0

    def test_drain_mode_flushes_arrivals(self):
        # until=None: the heap is empty once the send has run, but the
        # run is not over while a queue holds the arrival.
        rt = LiveRuntime(time_scale=SATURATED)
        seen = []
        fabric, a, b = _pair(rt, latency=4.0)
        b.on_message = lambda msg: seen.append((msg.n, rt.now))
        rt.schedule(1.0, a.send, "b", Ping(7))
        rt.run()
        assert seen == [(7, 5.0)]

    def test_sends_made_before_run_are_delivered(self):
        # The join storm in scenario.start() happens before run().
        rt = LiveRuntime(time_scale=SATURATED)
        seen = []
        fabric, a, b = _pair(rt, latency=4.0)
        b.on_message = lambda msg: seen.append((msg.n, rt.now))
        a.send("b", Ping(1))
        rt.schedule(2.0, seen.append, "timer@2")
        rt.schedule(6.0, seen.append, "timer@6")
        rt.run(until=10.0)
        assert seen == ["timer@2", (1, 4.0), "timer@6"]

    def test_arrival_precedes_work_scheduled_later_for_its_instant(self):
        # The sim's order at one logical instant is schedule order: the
        # arrival (scheduled when sent, at 1) runs before what a
        # callback at 5 adds for 5 — so the loop yields *at* the
        # announced deadline, not after it.
        rt = LiveRuntime(time_scale=SATURATED)
        seen = []
        fabric, a, b = _pair(rt, latency=4.0)
        b.on_message = lambda msg: seen.append("arrival")

        def at_five():
            seen.append("timer")
            rt.schedule(0.0, seen.append, "child")

        rt.schedule(5.0, at_five)
        rt.schedule(1.0, a.send, "b", Ping())
        rt.run(until=10.0)
        assert seen == ["timer", "arrival", "child"]

    def test_node_registered_mid_run_gets_queued_arrivals(self):
        rt = LiveRuntime(time_scale=SATURATED)
        fabric = QueueFabric(rt)
        a = Recorder(fabric, "a")
        fabric.connect("a", "late", LinkSpec(latency=4.0))
        late = []
        rt.schedule(1.0, a.send, "late", Ping(1))   # due 5: nobody there
        rt.schedule(3.0, a.send, "late", Ping(2))   # due 7: queued
        rt.schedule(6.0, lambda: late.append(Recorder(fabric, "late")))
        rt.schedule(8.0, a.send, "late", Ping(3))   # due 12
        rt.run(until=20.0)
        assert [m.n for m in late[0].received] == [2, 3]
        # The sim's verdict on the first one: no such node on arrival.
        assert fabric.messages_dropped == 1
        assert fabric.messages_delivered == 2

    def test_what_is_due_after_the_horizon_is_unaccounted(self):
        # The three sends of the first test: the one due at 11 is
        # neither delivered nor dropped, which is what a report's
        # ``wire.unaccounted`` counts.
        rt = LiveRuntime(time_scale=SATURATED)
        fabric, a, b = _pair(rt, latency=4.0)
        for at in (5.0, 6.0, 7.0):
            rt.schedule(at, a.send, "b", Ping())
        rt.run(until=10.0)
        assert (fabric.messages_sent - fabric.messages_dropped
                - fabric.messages_delivered) == 1


class TestInbox:
    """The queue fabric is the sim fabric on the live heap: no inbox, no
    task, no service, whatever the population."""

    def test_one_fabric_task_however_many_nodes(self, saturated_census):
        assert len(saturated_census["run"].scenario.net.fabric.nodes) > 40
        # The runtime's own task is the only one.
        assert saturated_census["tasks"] == [1, 1]

    def test_no_asyncio_queue_in_the_tree(self):
        src = pathlib.Path(repro.__file__).parent
        assert [str(p) for p in sorted(src.rglob("*.py"))
                if "asyncio.Queue" in p.read_text(encoding="utf-8")] == []

    def test_call_soons_per_yield(self, saturated_census):
        # Flat out with no service the loop never returns to asyncio,
        # so asyncio's own bookkeeping is what starting and ending a
        # run costs.
        rt = saturated_census["run"].runtime
        assert rt.yields == 0
        assert rt.events_processed > 5000
        assert saturated_census["call_soons"] <= CALL_SOONS_PER_RUN

    def test_equal_deadlines_arrive_in_send_order(self):
        rt = LiveRuntime(time_scale=SATURATED)
        fabric = QueueFabric(rt)
        a, b, c = (Recorder(fabric, n) for n in "abc")
        fabric.connect("a", "b", LinkSpec(latency=4.0))
        fabric.connect("a", "c", LinkSpec(latency=4.0))
        seen = []
        b.on_message = c.on_message = lambda msg: seen.append(
            (msg.dst, msg.n, rt.now))

        def burst():
            for n, dst in enumerate("bcb"):
                a.send(dst, Ping(n))

        rt.schedule(1.0, burst)
        rt.run(until=10.0)
        assert seen == [("b", 0, 5.0), ("c", 1, 5.0), ("b", 2, 5.0)]

    def test_stop_cancels_the_pump_and_leaves_nothing_behind(self):
        rt = LiveRuntime(time_scale=SATURATED)
        fabric, a, b = _pair(rt, latency=4.0)
        rt.schedule(8.0, a.send, "b", Ping(1))      # due 12: left queued

        async def main():
            await rt.arun(until=10.0)
            return asyncio.all_tasks() - {asyncio.current_task()}

        assert asyncio.run(main()) == set()
        assert b.received == []
        # No task is left to wake: a send outside the run just queues.
        a.send("b", Ping(2))

        rt2 = LiveRuntime(time_scale=SATURATED)
        fabric2, a2, b2 = _pair(rt2, latency=4.0)
        rt2.schedule(1.0, a2.send, "b", Ping(3))
        rt2.run(until=20.0)
        assert [m.n for m in b2.received] == [3]
        assert fabric2.messages_sent == fabric2.messages_delivered == 1
        assert b.received == []


class TestSleepWake:
    """``schedule_at`` interrupts the loop's sleep only for a deadline
    earlier than the one it sleeps toward (real time: 1 logical ms is
    1 wall ms; the margins are hundreds of ms)."""

    def _run(self, latency: float, until: float):
        rt = LiveRuntime(time_scale=1.0)
        fabric, a, b = _pair(rt, latency=latency)
        marks = {}
        b.on_message = lambda msg: marks.update(
            arrival=rt.now, arrival_wall_ms=rt.wall_now())
        rt.schedule(400.0, lambda: marks.update(timer=rt.now))

        def send_from_outside():
            # A foreign task sends while the loop sleeps toward 400.
            marks["yields_before"] = rt.yields
            marks["sent_at"] = rt.wall_now()
            rt.run_inline("a", marks["sent_at"], a.send, "b", Ping())

        _Script(rt, [(0.030, send_from_outside),
                     (0.150, lambda: marks.update(yields_later=rt.yields))])
        rt.run(until=until)
        return marks

    def test_earlier_arrival_wakes_the_sleeper(self):
        marks = self._run(latency=40.0, until=420.0)
        assert marks["arrival"] == pytest.approx(marks["sent_at"] + 40.0)
        # It ran when it was due, not when the loop would have woken
        # for the timer at 400.
        assert marks["arrival_wall_ms"] < 300.0
        assert marks["yields_later"] > marks["yields_before"]
        assert marks["timer"] == 400.0

    def test_later_arrival_does_not(self):
        marks = self._run(latency=500.0, until=600.0)
        # Still in the one sleep toward 400 long after the send...
        assert marks["yields_later"] == marks["yields_before"]
        # ...and the arrival still runs at its deadline.
        assert marks["timer"] == 400.0
        assert marks["arrival"] == pytest.approx(marks["sent_at"] + 500.0)


class TestLiveClock:
    """``now`` is a plain attribute: inside a callback its deadline,
    inside ``run_inline`` its ``at``, between callbacks the last
    executed deadline (never ahead of the wall), after the run the
    horizon.  (A callback's deadline and the horizon:
    ``TestLiveRuntime.test_frozen_clock_inside_callback``.)"""

    def test_between_callbacks_and_inline(self):
        rt = LiveRuntime(time_scale=0.1)     # 1 logical ms = 0.1 wall ms
        rt.schedule(10.0, lambda: None)
        rt.schedule(1000.0, lambda: None)
        marks = []

        def look():
            # 300 logical ms in: the loop sleeps toward 1,000.
            marks.append((rt.now, rt.wall_now()))
            marks.append(rt.run_inline(
                "x", 123.0, lambda: (rt.now, rt.current_owner)))
            marks.append((rt.now, rt.current_owner))

        _Script(rt, [(0.030, look)])
        rt.run(until=1100.0)
        (between, wall), inline, after = marks
        assert between == 10.0 and wall >= 250.0
        assert inline == (123.0, "x")
        assert after == (10.0, None)
        assert rt.now == 1100.0
        assert rt.wall_now() == rt.now      # no run in progress

    def test_after_a_drain_the_last_deadline(self):
        rt = LiveRuntime(time_scale=SATURATED)
        rt.schedule(3.0, lambda: None)
        rt.run()
        assert rt.now == 3.0


def test_unannounced_service_is_polled_during_a_backlog():
    # A service that cannot announce its input — only a trip through
    # the selector reveals it, which is what UdpFabric's sockets are.
    K = 5
    # Two batches more than K: asyncio runs a reader found ready by one
    # poll after the batch that was already queued, so the first
    # sighting is two batches in, and the loop leaves without a yield
    # after the last.
    backlog = (K + 2) * YIELD_EVERY
    rt = LiveRuntime(time_scale=SATURATED)
    polls = []
    done = []

    class Readable:
        async def start(self):
            self.r, self.w = socket.socketpair()
            self.w.send(b"x")   # never drained: readable at every poll
            asyncio.get_running_loop().add_reader(
                self.r, lambda: polls.append(len(done)))

        async def stop(self):
            asyncio.get_running_loop().remove_reader(self.r)
            self.r.close()
            self.w.close()

    rt.add_service(Readable())
    for _ in range(backlog):
        rt.schedule(1.0, done.append, None)     # all due at once
    rt.run(until=2.0)
    assert len(done) == backlog
    during = [n for n in polls if 0 < n <= backlog]
    assert len(during) >= K
    assert during[0] <= 2 * YIELD_EVERY
    assert all(b - a <= YIELD_EVERY for a, b in zip(during, during[1:]))


# ----------------------------------------------------------------------
# Ordering oracle: the saturated loop against the sim
# ----------------------------------------------------------------------
def _delivery_log(trace):
    by_mh = {}
    trace.subscribe(
        "mh.deliver",
        lambda rec: by_mh.setdefault(rec["mh"], []).append(
            (rec["source"], rec["local_seq"], rec["gseq"])))
    return by_mh


def _backwards(deadlines):
    return sum(1 for a, b in zip(deadlines, deadlines[1:]) if b < a)


SATURATED_SPEC = registry.get("quickstart", duration_ms=3000.0)


@pytest.fixture(scope="module")
def sim_reference():
    sim = Simulator(seed=SATURATED_SPEC.seed)
    sim_log = _delivery_log(sim.trace)
    sim_scenario = build_scenario(SATURATED_SPEC, sim=sim)
    sim_scenario.run()
    return {"sim": sim_log, "sim_net": sim_scenario.net}


def _saturated_run(sim_reference, mutate=None):
    """The saturated live run of :data:`SATURATED_SPEC` beside the sim's,
    with every executed deadline recorded; ``mutate(rt, handle)`` may
    edit each handle just before it runs."""
    run = NetworkBuilder(SATURATED_SPEC, fabric="queue",
                         time_scale=SATURATED, monitors=True).build()
    rt = run.runtime
    live_log = _delivery_log(rt.trace)
    deadlines = []
    execute = rt._execute

    def recording_execute(handle, wall_ms):
        deadlines.append(handle.time)
        if mutate is not None:
            mutate(rt, handle)
        execute(handle, wall_ms)

    rt._execute = recording_execute
    run.run()
    return {"run": run, "deadlines": deadlines, "live": live_log,
            **sim_reference}


@pytest.fixture(scope="module")
def saturated_vs_sim(sim_reference):
    return _saturated_run(sim_reference)


def _stale_clock(rt, handle):
    """Mutation: a callback sees the previous callback's deadline as
    ``now`` instead of its own (the clock is set after it runs)."""
    fn, stale, own = handle.fn, rt.now, handle.time

    def late(*args):
        rt.now = stale
        try:
            fn(*args)
        finally:
            rt.now = own

    handle.fn = late


class TestSaturatedOrdering:
    """The live loop flat out against the sim, four ordering
    assertions: executed deadlines never go backwards, every MH
    delivers the sim's sequence, the sim's delivery count, and zero
    monitor violations.  :meth:`test_the_oracle_catches_a_stale_clock`
    keeps them able to fail."""

    def test_executed_deadlines_never_go_backwards(self, saturated_vs_sim):
        deadlines = saturated_vs_sim["deadlines"]
        assert len(deadlines) > 10_000
        assert _backwards(deadlines) == 0

    def test_every_mh_delivers_the_sims_sequence(self, saturated_vs_sim):
        assert len(saturated_vs_sim["sim"]) == 24
        assert saturated_vs_sim["live"] == saturated_vs_sim["sim"]

    def test_delivers_what_the_sim_delivers(self, saturated_vs_sim):
        # The horizon: nothing due by 3,000 ms is lost, nothing due
        # after it is run.
        delivered = saturated_vs_sim["run"].report()["delivered"]
        assert delivered == 2832
        assert delivered == saturated_vs_sim["sim_net"].total_app_deliveries()

    def test_zero_monitor_violations(self, saturated_vs_sim):
        assert saturated_vs_sim["run"].violations() == []

    def test_callbacks_run_in_batches(self, saturated_vs_sim):
        # With no service the loop yields only to sleep (see
        # test_sleeps_count_as_yields), and flat out it never needs to:
        # the whole run is one batch.
        rt = saturated_vs_sim["run"].runtime
        assert rt.yields == rt.lag_report()["yields"] == 0
        assert rt.events_processed > 10_000

    def test_what_is_unaccounted_is_in_flight(self, saturated_vs_sim):
        # Arrivals due after the horizon stay on the heap; the queue
        # fabric loses nothing (5 in flight at ``run quickstart``'s
        # derived seed).
        wire = saturated_vs_sim["run"].result.live["wire"]
        assert (wire["unaccounted"], wire["in_flight"], wire["lost"]) \
            == (4, 4, 0)

    def test_the_oracle_catches_a_stale_clock(self, sim_reference):
        """Under :func:`_stale_clock` three of the four fail: the
        executed deadlines go backwards 164 times, all 24 MHs deliver a
        sequence other than the sim's, and 2,860 are delivered instead
        of 2,832.  The monitors stay silent (0 violations): a clock one
        callback late breaks agreement with the sim, not total order."""
        mutant = _saturated_run(sim_reference, mutate=_stale_clock)
        oracle = {"backwards": _backwards(mutant["deadlines"]),
                  "same_sequences": mutant["live"] == mutant["sim"],
                  "delivered": mutant["run"].report()["delivered"],
                  "violations": len(mutant["run"].violations())}
        assert oracle != {"backwards": 0, "same_sequences": True,
                          "delivered": 2832, "violations": 0}


# ----------------------------------------------------------------------
# CLI: the lag SLO
# ----------------------------------------------------------------------
class TestMaxLagFlag:
    ARGS = ["run", "quickstart", "--live", "queue", "--time-scale", "0.001",
            "--duration", "800"]

    def test_overloaded_run_is_marked_and_exits_nonzero(self, tmp_path,
                                                         capsys):
        out = tmp_path / "report.json"
        code = cli_main(self.ARGS + ["--max-lag-ms", "100",
                                     "--out", str(out)])
        assert code == EXIT_OVERLOADED
        assert code not in (0, 1, 2)
        live = json.loads(out.read_text())["runs"][0]["live"]
        assert live["overloaded"] is True
        assert live["max_lag_limit_ms"] == 100.0
        assert live["lag"]["max_lag_ms"] > 100.0
        captured = capsys.readouterr()
        assert "OVERLOADED" in captured.err
        assert "ok: zero violations" not in captured.out
        assert "yields=" in captured.out and " lost=0" in captured.out

    def test_within_the_limit_is_ok(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli_main(self.ARGS + ["--max-lag-ms", "1e12",
                                     "--out", str(out)])
        assert code == 0
        live = json.loads(out.read_text())["runs"][0]["live"]
        assert live["overloaded"] is False
        assert "ok: zero violations" in capsys.readouterr().out

    def test_unset_changes_nothing(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli_main(self.ARGS + ["--out", str(out)]) == 0
        live = json.loads(out.read_text())["runs"][0]["live"]
        assert "overloaded" not in live
        assert "max_lag_limit_ms" not in live
        assert "ok: zero violations" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Builder validation
# ----------------------------------------------------------------------
class TestNetworkBuilder:
    def test_unknown_fabric_rejected(self):
        with pytest.raises(ValueError, match="fabric"):
            NetworkBuilder(short_quickstart(), fabric="carrier-pigeon")

    def test_non_ringnet_spec_rejected(self):
        spec = short_quickstart()
        spec.system = "bspt"
        with pytest.raises(ValueError, match="ringnet"):
            NetworkBuilder(spec)

    #: The registry scenarios with open-world arrivals, and one more by
    #: ``--set`` (arrivals land in idle catchments, so it needs some).
    OPEN_WORLD = [["open_world"], ["open_world_mobile"],
                  ["quickstart", "--set", "openworld.enabled=true",
                   "--set", "hierarchy.idle_per_ap=4"]]

    @pytest.mark.parametrize("argv", OPEN_WORLD,
                             ids=["open_world", "open_world_mobile",
                                  "quickstart+openworld"])
    def test_udp_with_open_world_arrivals_is_exit_2(self, argv, tmp_path,
                                                    monkeypatch, capsys):
        """An arrival needs a socket after start: rejected before any
        binds, as a usage error — it used to crash mid-run with a
        traceback and exit 1, the code of a failed check."""
        monkeypatch.chdir(tmp_path)
        run = ["run"] + argv + ["--time-scale", "0.001", "--duration", "500",
                                "--quiet", "--out", "x.json"]
        assert cli_main(run + ["--live", "udp", "--record", "t.jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the udp fabric needs a "
                                       "static population")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []
        assert cli_main(run + ["--live", "queue"]) == 0


# ----------------------------------------------------------------------
# Live end-to-end over the queue fabric
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def queue_run():
    run = NetworkBuilder(short_quickstart(), fabric="queue",
                         time_scale=FAST, monitors=True).build()
    run.run()
    return run


class TestQueueFabricRun:
    def test_traffic_flows(self, queue_run):
        assert queue_run.scenario.fleet.total_sent > 0
        assert queue_run.scenario.net.total_app_deliveries() > 0

    def test_zero_monitor_violations(self, queue_run):
        assert queue_run.violations() == []

    def test_zero_order_violations(self, queue_run):
        rep = queue_run.report()
        assert rep["order_checked"] and rep["order_violations"] == 0

    def test_report_shape(self, queue_run):
        rep = queue_run.report()
        # The run entry plus perfbench's alias; no backend tag: the
        # live section says which backend ran.
        assert rep == {**queue_run.result.to_dict(),
                       "monitor_violations": queue_run.violations()}
        assert "backend" not in rep
        live = rep["live"]
        assert live["fabric"] == "queue"
        assert rep["delivered"] > 0
        assert live["lag"]["events"] > 0
        assert live["loadgen"]["offered_rate_per_sec"] == 40.0
        assert live["loadgen"]["total_sent"] == rep["sent"]
        # The report must be JSON-serializable: it is the CI artifact.
        json.dumps(rep, default=list)

    def test_report_says_what_the_wire_lost(self, queue_run):
        fabric = queue_run.scenario.net.fabric
        wire = json.loads(json.dumps(queue_run.report()["live"]["wire"]))
        assert wire == {
            "sent": fabric.messages_sent,
            "dropped": fabric.messages_dropped,
            "delivered": fabric.messages_delivered,
            "unaccounted": fabric.messages_sent - fabric.messages_dropped
            - fabric.messages_delivered,
            "in_flight": queue_run.runtime.queued(fabric._arrive),
            "lost": 0,
            "foreign": 0}
        assert wire["delivered"] > 0 and 0 < wire["unaccounted"] < 50
        assert wire["in_flight"] == wire["unaccounted"]

    def test_loadgen_sampled(self, queue_run):
        assert queue_run.loadgen.samples, "load generator never sampled"
        assert queue_run.loadgen.achieved_rate_per_sec() > 0


# ----------------------------------------------------------------------
# UDP loopback fabric
# ----------------------------------------------------------------------
_FLIPPED = []


def _flip():
    _FLIPPED.append(True)


class _Flip:
    """Unpickling this calls :func:`_flip`."""

    def __reduce__(self):
        return (_flip, ())


class TestUdpFabric:
    def test_loopback_roundtrip(self):
        run = NetworkBuilder(short_quickstart(duration_ms=1000.0),
                             fabric="udp", time_scale=0.2,
                             monitors=False).build()
        run.run()
        fabric = run.scenario.net.fabric
        assert fabric.bytes_on_wire > 0
        assert fabric.messages_delivered > 0
        assert run.scenario.net.total_app_deliveries() > 0
        rep = run.report()
        assert rep["order_checked"] and rep["order_violations"] == 0
        wire = json.loads(json.dumps(rep["live"]["wire"]))
        assert sorted(wire) == ["delivered", "dropped", "foreign",
                                "in_flight", "lost", "sent", "unaccounted"]
        assert wire["foreign"] == 0
        assert wire["unaccounted"] == (wire["sent"] - wire["dropped"]
                                       - wire["delivered"]) >= 0
        assert wire["in_flight"] == run.runtime.queued(fabric._transmit)
        assert wire["lost"] == wire["unaccounted"] - wire["in_flight"] >= 0

    def test_datagrams_arrive_at_the_wall_clock(self):
        # Each receive runs at the wall reading taken for it, in the
        # order the kernel handed them up.
        run = NetworkBuilder(short_quickstart(duration_ms=600.0),
                             fabric="udp", time_scale=0.2).build()
        rt, fabric = run.runtime, run.scenario.net.fabric
        walls, seen = [], []
        wall_now, arrive = rt.wall_now, fabric._arrive

        def reading():
            walls.append(wall_now())
            return walls[-1]

        def arriving(dst, msg):
            seen.append(rt.now)
            arrive(dst, msg)

        rt.wall_now, fabric._arrive = reading, arriving
        run.run()
        assert len(seen) > 100
        assert seen == walls == sorted(walls)

    def test_a_strangers_datagram_is_never_unpickled(self):
        """Mid-run, a socket the fabric did not bind sends a node a
        pickle whose ``__reduce__`` flips a flag, then 16 random bytes:
        both are dropped unread and counted as ``wire.foreign``."""
        evil = pickle.dumps(_Flip())
        run = NetworkBuilder(short_quickstart(duration_ms=1500.0),
                             fabric="udp", time_scale=0.2,
                             monitors=True).build()
        fabric = run.scenario.net.fabric
        stranger = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

        def inject():
            port = fabric._ports[min(fabric._ports)]
            for data in (evil, random.Random(0).randbytes(16)):
                stranger.sendto(data, (fabric.host, port))

        run.runtime.schedule(200.0, inject)
        try:
            run.run()
        finally:
            stranger.close()
        assert _FLIPPED == []
        result = run.result
        assert result.live["wire"]["foreign"] == 2
        assert run.violations() == [] and result.order_violations == 0
        assert result.live["wire"]["delivered"] > 0
        assert run.scenario.net.total_app_deliveries() > 0
        pickle.loads(evil)          # the payload was live all along
        assert _FLIPPED == [True]
        _FLIPPED.clear()

    def test_late_registration_rejected(self):
        rt = LiveRuntime(time_scale=FAST)
        from repro.live.fabric import UdpFabric

        fabric = UdpFabric(rt)

        class Stub:
            id = "late"

            def on_message(self, msg):  # pragma: no cover
                pass

        async def scenario():
            await fabric.start()
            with pytest.raises(RuntimeError, match="after start"):
                fabric.register(Stub())
            await fabric.stop()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# Order agreement machinery
# ----------------------------------------------------------------------
class TestOrderAgreement:
    def test_inversion_count_matches_bruteforce(self):
        cases = [[], [1], [1, 2, 3], [3, 2, 1], [2, 1, 4, 3],
                 [5, 1, 4, 2, 3], [1, 3, 2, 5, 4, 0]]
        for seq in cases:
            brute = sum(1 for i in range(len(seq))
                        for j in range(i + 1, len(seq))
                        if seq[i] > seq[j])
            assert _count_inversions(list(seq)) == brute, seq

    def test_identical_sequences_agree_fully(self):
        seq = [("s0", i) for i in range(10)]
        agreement, common, inversions = order_agreement(seq, list(seq))
        assert (agreement, common, inversions) == (1.0, 10, 0)

    def test_reversed_sequences_fully_disagree(self):
        seq = [("s0", i) for i in range(10)]
        agreement, common, inversions = order_agreement(seq, seq[::-1])
        assert agreement == 0.0
        assert inversions == 45

    def test_partial_overlap(self):
        sim = [("s", 0), ("s", 1), ("s", 2), ("s", 3)]
        live = [("s", 1), ("s", 0), ("s", 2)]
        agreement, common, inversions = order_agreement(sim, live)
        assert common == 3
        assert inversions == 1
        assert agreement == pytest.approx(1 - 1 / 3)

    def test_disjoint_sequences_trivially_agree(self):
        agreement, common, _ = order_agreement([("a", 1)], [("b", 2)])
        assert common == 0
        assert agreement == 1.0


# ----------------------------------------------------------------------
# Differential harness + report schema
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def diff_report():
    return diff_spec(short_quickstart(), fabric="queue", time_scale=FAST)


class TestDiffHarness:
    def test_within_tolerance(self, diff_report):
        assert diff_report["ok"] is True
        assert all(e["ok"] for e in diff_report["envelopes"])
        assert all(g["ok"] for g in diff_report["groups"])

    def test_conformance_clean(self, diff_report):
        conf = diff_report["conformance"]
        assert conf["sim_order_violations"] == 0
        assert conf["live_order_violations"] == 0
        assert conf["live_monitor_violations"] == []

    def test_covers_every_mh(self, diff_report):
        # quickstart: 3 BR x 2 AG x 2 AP x 2 MH = 24 mobile hosts.
        assert len(diff_report["groups"]) == 24

    def test_report_matches_committed_schema(self, diff_report):
        schema = load_schema("live_diff_report.schema.json")
        problems = validate_report(diff_report, schema)
        assert problems == []
        # The two blocks are whole run entries; only the live one has
        # a live section.
        assert validate_report(diff_report["sim"],
                               load_schema("run_entry.schema.json")) == []
        assert "live" not in diff_report["sim"]
        assert diff_report["live"]["live"]["fabric"] == "queue"

    def test_report_is_json_serializable(self, diff_report):
        json.dumps(diff_report)

    def test_schema_catches_missing_keys(self, diff_report):
        schema = load_schema("live_diff_report.schema.json")
        broken = dict(diff_report)
        del broken["envelopes"]
        broken["seed"] = "seven"
        broken["live"] = {k: v for k, v in diff_report["live"].items()
                          if k != "latency"}
        problems = validate_report(broken, schema)
        assert any("envelopes" in p for p in problems)
        assert any("seed" in p for p in problems)
        assert "$.live: missing required key 'latency'" in problems

    def test_default_tolerances_preserved_in_report(self, diff_report):
        assert diff_report["tolerances"] == DEFAULT_TOLERANCES
