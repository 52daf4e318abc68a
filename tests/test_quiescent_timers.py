"""Quiescent timers: parking is exact, and the oracle for it can fail.

``PeriodicTimer.park()`` / ``wake()`` let a tick that finds nothing to
watch stop scheduling itself.  The claim is *exactness*: a parked run
is the polling run minus the ticks that did nothing — same records,
same ``(time, causal key)`` for every tick that still fires.  The
polling stack no longer exists in ``src/``; it lives here, as the
reference: with ``PeriodicTimer.park`` patched to a no-op every chain
ticks forever, which is the parent commit's behaviour.

(a) differential — parked vs polling trace streams, byte for byte, over
    the first 40 specs of the fuzzer's generator, two perfbench quick
    windows and one FINDINGS ``campus()`` run with dynamic AP paths;
(b) unit tests of the chain continuation on both runtimes, the tie rule
    at a grid instant above all (nothing else pins it: ``t < now`` and
    ``t <= now`` in its place pass every golden and every fuzz case);
(c) hypothesis: random give-work / wake / stop / start sequences against
    the polling reference;
(d) the block-drawn uniform streams (``RandomStreams.uniform``).

Every wake site left in ``src/`` is there because deleting it fails a
test (checked by deleting each in turn):

=====================================================  =======================
wake site                                              fails without it
=====================================================  =======================
``MobileHost._deliver_contiguous`` (gap tick)          5 goldens (``handoff_storm``,
                                                       ``open_world``, ...); (a)
                                                       ``fuzz-0011``, ``lossy_churn``
``ForwardingMixin.handle_ring_ordered`` (maintenance)  golden ``failure_drill`` —
                                                       nothing in (a) catches it
``OrderingMixin.order_assignment`` (maintenance)       (a) ``fuzz-0005`` (+3) — no
                                                       golden catches it
``NetworkEntity._ag_handle_path_reserve`` (standby)    (a) ``fuzz-0013`` alone — no
                                                       golden catches it
``OrderingMixin.handle_source_data`` (τ tick)          all 22 goldens, all of (a)
``ForwardingMixin.handle_ring_raw`` (τ tick)           all 22 goldens, all of (a)
=====================================================  =======================

Goldens are ``tests/test_trace_identity.py``.  A wake in the NE's
``_tombstone_range`` is deliberately absent: a tombstoned range answers
this NE's own request, so it lies below ``rear`` and opens no hole.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from perfbench.workloads import get as perfbench_workload
from repro.experiments import registry
from repro.experiments.runner import observed_scenario
from repro.experiments.spec import ExperimentSpec
from repro.live.runtime import LiveRuntime
from repro.runtime.timers import PeriodicTimer
from repro.sim import rand
from repro.sim.engine import Simulator, mix_key
from repro.sim.rand import (PurePythonGenerator, RandomStreams,
                            UniformBlocks)
from repro.validation.fuzz import fuzz_points
from repro.validation.record import TraceRecorder, first_divergence

from helpers import spec_path


def _poll(self) -> None:
    """``PeriodicTimer.park`` of the polling reference: never park."""


# ----------------------------------------------------------------------
# (a) Parked vs polling, whole stacks
# ----------------------------------------------------------------------
def _quick_window(name: str) -> ExperimentSpec:
    workload = perfbench_workload(name)
    return workload.spec(workload.default_seed, quick=True)


#: perfbench/FINDINGS.md: campus(11, protocol={"static_ap_paths": False}).
CAMPUS_DYNAMIC_PATHS = spec_path("campus_dynamic_paths.json")

DIFFERENTIAL_SPECS = [p.spec for p in fuzz_points(40, 0, 3_000.0)] + [
    _quick_window("lossy_churn"), _quick_window("roaming_clean"),
    registry.resolve(CAMPUS_DYNAMIC_PATHS)]


def test_the_differential_runs_the_specs_it_always_ran():
    """The 40 fuzz specs are what the hand-copied derivation this file
    carried before ``fuzz_points`` produced (``to_dict()`` hash of that
    list at the parent commit), and the campus file is the hand copy."""
    blob = json.dumps([spec.to_dict() for spec in DIFFERENTIAL_SPECS[:40]],
                      sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "f49fbc6ad650c265bc8918cf645c3299a575479f02c75d251f359ce4cac616b4")
    campus = DIFFERENTIAL_SPECS[-1]
    assert (campus.name, campus.seed, campus.duration_ms,
            campus.protocol) == ("campus-dynamic-paths", 11, 6_000.0,
                                 {"static_ap_paths": False})


def _record(spec):
    recorder = TraceRecorder()
    with observed_scenario(spec, recorder) as scenario:
        scenario.run()
    return recorder.lines, scenario.sim.events_processed


@pytest.mark.parametrize("spec", DIFFERENTIAL_SPECS, ids=lambda s: s.name)
def test_parked_run_is_the_polling_run_minus_idle_ticks(spec, monkeypatch):
    parked, parked_events = _record(spec)
    monkeypatch.setattr(PeriodicTimer, "park", _poll)
    polling, polling_events = _record(spec)
    divergence = first_divergence(parked, polling)
    assert divergence is None, divergence.describe()
    if spec.system == "unordered":      # the ablation has no periodic task
        assert parked_events == polling_events
    else:
        assert parked_events < polling_events


# ----------------------------------------------------------------------
# (b) The chain continuation, on the engine
# ----------------------------------------------------------------------
class PollingTimer(PeriodicTimer):
    """The reference: a periodic timer that cannot park."""

    park = _poll


class Chain:
    """A ticking task that parks when it has no work — the shape of all
    three protocol callers.  ``log`` holds ``(time, event key, had
    work)`` of every executed tick."""

    def __init__(self, sim, period=10.0, timer_cls=PeriodicTimer):
        self.sim = sim
        self.work = 0
        self.log = []
        self.timer = timer_cls(sim, period, self._tick)

    def _tick(self):
        key = getattr(self.sim, "_ctx_root", None)   # None on live
        self.log.append((self.sim.now, key, self.work > 0))
        if self.work:
            self.work -= 1
        else:
            self.timer.park()

    def give(self, n=1):
        """The mutation that creates work: the owner wakes the tick."""
        self.work += n
        self.timer.wake()

    @property
    def worked(self):
        return [(t, k) for t, k, had_work in self.log if had_work]

    @property
    def ticks(self):
        return [(t, k) for t, k, _ in self.log]


def _pair(script, until, seed=5):
    """Run ``script(sim, chain)`` — which may only schedule — on a
    parking chain and on its polling twin; both are built identically,
    so their events carry identical causal keys."""
    chains = []
    for timer_cls in (PeriodicTimer, PollingTimer):
        sim = Simulator(seed=seed)
        chain = Chain(sim, timer_cls=timer_cls)
        chain.timer.start()
        script(sim, chain)
        sim.run(until=until)
        chains.append(chain)
    return chains


def _assert_exact(parked: Chain, polling: Chain):
    assert parked.worked == polling.worked
    # Idle ticks that still fire do so on the polling chain's own
    # (time, key) sequence, and there are fewer of them.
    assert set(parked.ticks) <= set(polling.ticks)
    assert parked.timer.fires == len(parked.log) < len(polling.log)


def test_woken_chain_fires_where_a_never_parked_twin_does():
    def script(sim, chain):
        sim.schedule_at(47.0, chain.give, 2)
        sim.schedule_at(123.0, chain.give)

    parked, polling = _pair(script, until=200.0)
    _assert_exact(parked, polling)
    # Parked at the first idle tick, resumed on the grid, parked again.
    assert [t for t, _ in parked.ticks] == [10.0, 50.0, 60.0, 70.0,
                                            130.0, 140.0]
    assert [t for t, _ in polling.ticks] == [10.0 * k for k in range(1, 21)]


@pytest.mark.parametrize("offset, works_at", [(-1, 50.0), (+1, 60.0)],
                         ids=["waker-sorts-before-the-tick",
                              "waker-sorts-after-the-tick"])
def test_wake_at_a_grid_instant_keeps_the_polling_order(offset, works_at):
    """The tie rule: at ``t == now`` a tick has passed iff its key sorts
    at or before the executing event's.  ``t < now`` in its place fails
    the second case, ``t <= now`` the first."""
    probe = Chain(Simulator(seed=5), timer_cls=PollingTimer)
    probe.timer.start()
    probe.sim.run(until=50.0)
    at, tick_key = probe.ticks[-1]
    assert at == 50.0

    def script(sim, chain):
        sim.schedule_keyed(50.0, tick_key + offset, None, chain.give)

    parked, polling = _pair(script, until=100.0)
    _assert_exact(parked, polling)
    assert [t for t, _ in parked.worked] == [works_at]


def test_wake_between_runs_treats_the_horizon_instant_as_passed():
    # run(until=50) executes the polling tick at 50 (inclusive horizon),
    # so work handed over after it returns is seen at 60 on both sides.
    chains = []
    for timer_cls in (PeriodicTimer, PollingTimer):
        sim = Simulator(seed=5)
        chain = Chain(sim, timer_cls=timer_cls)
        chain.timer.start()
        sim.run(until=50.0)
        chain.give()
        sim.run(until=100.0)
        chains.append(chain)
    _assert_exact(*chains)
    assert [t for t, _ in chains[0].worked] == [60.0]


def test_step_sees_an_executing_event_like_run_does():
    # The shard worker dispatches probe events through step().
    sim = Simulator(seed=5)
    chain = Chain(sim)
    chain.timer.start()
    sim.run(until=45.0)
    tick_key = chain.timer._parked.key         # the tick at 20
    for _ in range(3):                         # ... at 30, 40, 50
        tick_key = mix_key(tick_key, 0)
    sim.schedule_keyed(50.0, tick_key - 1, None, chain.give)
    assert sim.step()
    assert chain.timer._event.time == 50.0     # not passed: fires at 50


def test_running_start_and_stop_while_parked():
    sim = Simulator(seed=5)
    chain = Chain(sim)
    timer = chain.timer
    assert not timer.running
    timer.start()
    sim.run(until=15.0)
    assert timer.running and sim.pending == 0       # parked at t=10
    timer.start()                                   # no-op while parked
    assert sim.pending == 0
    sim.run(until=45.0)
    assert chain.ticks == chain.ticks[:1]
    timer.stop()                                    # forgets the resume point
    assert not timer.running
    chain.give()                                    # wake() after stop: no-op
    assert sim.pending == 0 and not timer.running
    timer.start()                                   # a fresh chain from t=45
    sim.run(until=70.0)
    assert [t for t, _ in chain.ticks] == [10.0, 55.0, 65.0]
    assert timer.fires == 3


def test_a_timer_the_shard_gate_refused_ignores_wake():
    sim = Simulator(seed=5)
    chain = Chain(sim)

    def start_on_a_foreign_shard():
        sim.gate = lambda owner: False
        chain.timer.start()

    sim.call_owned("mh:elsewhere", start_on_a_foreign_shard)
    assert not chain.timer.running
    chain.give()
    assert sim.pending == 0 and not chain.timer.running
    sim.run(until=50.0)
    assert chain.log == []


def test_live_runtime_resumes_on_the_grid():
    rt = LiveRuntime(time_scale=0.0001)
    chain = Chain(rt, period=7.0)
    chain.timer.phase = 3.0
    chain.timer.start()                 # grid: 3 + 7k
    rt.schedule_at(20.5, chain.give)
    rt.schedule_at(45.0, chain.give)    # exactly a grid instant: passed
    rt.run(until=70.0)
    assert [(t, w) for t, _, w in chain.log] == [
        (10.0, False), (24.0, True), (31.0, False),
        (52.0, True), (59.0, False)]
    assert chain.timer.running and chain.timer.fires == 5


# ----------------------------------------------------------------------
# (c) Random op sequences against the polling reference
# ----------------------------------------------------------------------
_OPS = st.lists(
    st.tuples(st.integers(0, 7),        # gap before the op, in half periods
              st.sampled_from(["give", "give", "give3", "wake",
                               "stop", "start"])),
    max_size=24)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_random_op_sequences_match_the_polling_reference(ops):
    """Ops are events scheduled up front (identical keys on both sides),
    half of them at exact grid instants."""
    def script(sim, chain):
        actions = {"give": chain.give, "give3": lambda: chain.give(3),
                   "wake": chain.timer.wake, "stop": chain.timer.stop,
                   "start": chain.timer.start}
        t = 0.0
        for gap, op in ops:
            t += gap * 5.0
            sim.schedule_at(t, actions[op])

    end = sum(gap for gap, _ in ops) * 5.0 + 100.0
    parked, polling = _pair(script, until=end)
    assert parked.worked == polling.worked
    assert set(parked.ticks) <= set(polling.ticks)
    assert parked.timer.fires == len(parked.log) <= len(polling.log)
    assert parked.timer.running == polling.timer.running
    assert parked.work == polling.work


# ----------------------------------------------------------------------
# (d) Block-drawn uniform streams
# ----------------------------------------------------------------------
@pytest.mark.skipif(rand.np is None, reason="block draws need numpy")
@settings(max_examples=60, deadline=None)
@given(block=st.integers(1, 70), draws=st.integers(0, 300),
       seed=st.integers(0, 2**32))
def test_block_reader_yields_the_scalar_draws(block, draws, seed):
    with mock.patch.object(rand, "UNIFORM_BLOCK", block):
        reader = RandomStreams(seed).uniform("link.loss.x")
        blocked = [reader.random() for _ in range(draws)]
    twin = RandomStreams(seed).get("link.loss.x")
    assert blocked == [twin.random() for _ in range(draws)]
    assert all(type(x) is float for x in blocked)


@pytest.mark.skipif(rand.np is None, reason="block draws need numpy")
def test_block_reader_offers_random_only():
    reader = RandomStreams(3).uniform("link.jitter.x")
    assert isinstance(reader, UniformBlocks)
    assert not hasattr(reader, "exponential")
    assert not hasattr(reader, "integers")


def test_a_stream_is_served_by_one_accessor_only():
    streams = RandomStreams(3)
    streams.uniform("a")
    streams.get("b")
    with pytest.raises(ValueError, match="'a'"):
        streams.get("a")
    with pytest.raises(ValueError, match="'b'"):
        streams.uniform("b")
    assert streams.uniform("a") is streams.uniform("a")     # cached
    assert streams.names() == ["a", "b"] and "a" in streams
    streams.reset()
    assert streams.names() == []
    streams.get("a")                                         # free again


def test_without_numpy_the_reader_is_the_pure_python_generator(monkeypatch):
    monkeypatch.setattr(rand, "np", None)
    reader = RandomStreams(3).uniform("a")
    assert isinstance(reader, PurePythonGenerator)
    twin = RandomStreams(3).get("a")
    assert [reader.random() for _ in range(40)] == \
        [twin.random() for _ in range(40)]
    streams = RandomStreams(3)
    streams.uniform("a")
    with pytest.raises(ValueError):
        streams.get("a")
