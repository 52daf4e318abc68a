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
(d) the block-drawn uniform streams (``RandomStreams.uniform``);
(e) parking where the hole fills: the MH gap tick and the NE maintenance
    tick park at the mutation that drains their work, so no tick fires
    only to park — scripted fills against the polling reference, the
    O(1) ``MessageQueue.missing`` count against a scan, and the idle
    gap, maintenance and τ ticks left in each quick pinned window;
(f) the τ chain parks after every tick and wakes only when a WQ entry
    becomes coverable — scripted differentials in which the parked τ
    ticks are exactly the polling ticks that took an entry out of WQ.

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
``OrderingMixin._pass_token`` (τ tick)                 all 22 goldens, 35 of (a),
                                                       6 of (f)
``ForwardingMixin.handle_ring_raw`` (τ tick)           goldens ``asymmetric_partition``,
                                                       ``degraded_wan``,
                                                       ``flapping_backbone``; (a)
                                                       ``fuzz-0009`` (+3); (f)
``TokenRecoveryMixin._recompute_kill_set`` (τ tick)    (f) killed held token alone —
                                                       no golden catches it
=====================================================  =======================

Goldens are ``tests/test_trace_identity.py``.  A wake in the NE's
``_tombstone_range`` is deliberately absent: a tombstoned range answers
this NE's own request, so it lies below ``rear`` and opens no hole.
Nor does ``handle_source_data`` wake the τ tick: an own-source entry is
never coverable on insert, since only a later hold of this node mints
its WTSNP entry (a wake there failed nothing).  The pass wake comes
before the drop-hook branch of ``_pass_token``: after it, (f)'s
drop-hook test alone fails.  A wake on every ``RingRaw`` insert brings
idle τ ticks back, which (e) counts in all four windows.

The park sites (``_deliver_contiguous`` and ``_handle_join_ack`` on the
MH; the fills in ``handle_ring_ordered``, ``order_assignment`` and
``_tombstone_range`` and the activation in ``_ag_handle_path_reserve``
through ``GapRecoveryMixin._park_if_drained`` on the NE) are the
opposite: deleting one changes no record, only brings its idle ticks
back, which (e) counts.
"""

from __future__ import annotations

import hashlib
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from perfbench import measure
from perfbench.workloads import get as perfbench_workload
from repro.core.datastructures import BufferedMessage, MessageQueue, WQEntry
from repro.core.messages import (GapUnavailable, RingOrdered, RingRaw,
                                 SourceData, TokenAnnounce, WirelessDeliver)
from repro.experiments import registry
from repro.experiments.runner import observed_scenario
from repro.experiments.spec import ExperimentSpec
from repro.live.runtime import LiveRuntime
from repro.runtime.timers import PeriodicTimer
from repro.sim import rand
from repro.sim.engine import Simulator, mix_key
from repro.sim.rand import (PurePythonGenerator, RandomStreams,
                            UniformBlocks)
from repro.topology.tiers import Tier
from repro.validation.fuzz import fuzz_points
from repro.validation.record import TraceRecorder, first_divergence

from helpers import small_net, spec_path


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


def _with_failures_section(spec: ExperimentSpec) -> dict:
    """``spec.to_dict()`` in the shape it had while crashes were a
    separate ``failures`` list ahead of the fault plan."""
    data = spec.to_dict()
    actions = data["faults"]["actions"]
    data["failures"] = [
        {"at_ms": a["at_ms"], "target2": None,
         **({"kind": "crash_token_holder", "target": None}
            if a["target"] == "@token_holder"
            else {"kind": "crash", "target": a["target"]})}
        for a in actions if a["kind"] == "crash"]
    data["faults"]["actions"] = [a for a in actions if a["kind"] != "crash"]
    return data


def test_the_differential_runs_the_specs_it_always_ran():
    """The 40 fuzz specs are what the hand-copied derivation this file
    carried before ``fuzz_points`` produced (``to_dict()`` hash of that
    list at the parent commit, crashes written back as the ``failures``
    section they were then), and the campus file is the hand copy."""
    blob = json.dumps([_with_failures_section(spec)
                       for spec in DIFFERENTIAL_SPECS[:40]], sort_keys=True)
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


@pytest.mark.skipif(rand.np is None, reason="block draws need numpy")
def test_a_draw_runs_no_python_frame():
    cap = rand.UNIFORM_BLOCK
    reader = RandomStreams(5).uniform("link.loss.x")
    warm, n = 0, 0
    while n < cap:                  # blocks double from 2 up to the cap
        n = min(2 * n or 2, cap)
        warm += n
    for _ in range(warm):           # ... and the last full block runs dry
        reader.random()
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for _ in range(1000):
            reader.random()
    finally:
        sys.setprofile(None)
    assert len(calls) == -(-1000 // cap), calls[:5]   # one per refill


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


# ----------------------------------------------------------------------
# (e) Parking where the hole fills
# ----------------------------------------------------------------------
# On a quiet ``small_net`` the gap and maintenance chains (period 30 ms)
# tick at multiples of 30 ms; the scripts below act between two ticks.
MH, AP, AG, BR = "mh:0.0.0.0", "ap:0.0.0", "ag:0.1", "br:0"
CHAINS = ("_gap_tick", "_maintenance_tick")


def _logging_fire(log):
    """``PeriodicTimer._fire`` that logs ``(node, time, key)`` of every
    gap and maintenance tick.  Patch it before the network is built:
    each timer binds ``_fire`` at construction."""
    fire = PeriodicTimer._fire

    def logged(self):
        if self.fn.__name__ in CHAINS:
            sim = self.sim
            log.append((self.fn.__self__.id, sim.now, sim._ctx_root))
        fire(self)
    return logged


def _at(sim, t, fn, *args):
    """A scripted event with a key of its own, equal in both runs."""
    sim.schedule_keyed(t, int(t * 1000) | 1, None, fn, *args)


def _ordered(net, seq, cls=RingOrdered):
    return cls(net.cfg.gid, seq, BR, "src:x", seq, ("x", seq), 0.0)


def _quiet_pair(script, until=600.0):
    """``script(sim, net)`` on a small network with no source, once its
    joins have settled, parked and polling.  ``script`` only schedules
    keyed events (:func:`_at`), so both runs see the same causal keys
    from t=200 on.  Returns per run ``(records, ticks, net)``: the trace
    records and the gap / maintenance ticks after t=200."""
    runs = []
    for park in (PeriodicTimer.park, _poll):
        ticks, records = [], []
        with mock.patch.object(PeriodicTimer, "park", park), \
                mock.patch.object(PeriodicTimer, "_fire",
                                  _logging_fire(ticks)):
            sim, net = small_net(seed=3)
            net.start()
            sim.run(until=200.0)
            del ticks[:]
            sim.trace.subscribe(None, records.append)
            script(sim, net)
            sim.run(until=until)
        runs.append((records, ticks, net))
    parked, polling = runs
    assert parked[0] == polling[0]
    assert set(parked[1]) < set(polling[1])
    return parked, polling


def _times(run, node):
    return [t for n, t, _ in run[1] if n == node]


def _parked(run, node):
    net = run[2]
    host = net.mobile_hosts.get(node) or net.nes[node]
    timer = getattr(host, "_gap_timer", None) or host._maint_timer
    return timer._parked is not None and timer._event is None


def test_a_hole_that_opens_and_fills_between_two_ticks_costs_no_tick():
    def script(sim, net):
        mh = net.mobile_hosts[MH]
        _at(sim, 215.0, mh._handle_deliver, _ordered(net, 1, WirelessDeliver))
        _at(sim, 225.0, mh._handle_deliver, _ordered(net, 0, WirelessDeliver))

    parked, polling = _quiet_pair(script)
    assert _times(parked, MH) == []       # 240 would only have parked
    assert _times(polling, MH) == [210.0 + 30.0 * k for k in range(14)]
    assert parked[2].mobile_hosts[MH].delivered_count == 2
    assert _parked(parked, MH)


def test_a_hole_that_reopens_fires_the_skipped_tick_where_polling_does():
    def script(sim, net):
        mh = net.mobile_hosts[MH]
        for t, seq in ((215.0, 1), (225.0, 0), (235.0, 3)):
            _at(sim, t, mh._handle_deliver,
                _ordered(net, seq, WirelessDeliver))

    parked, polling = _quiet_pair(script)
    first = [tick for tick in parked[1] if tick[0] == MH][0]
    assert first[1] == 240.0 and first in polling[1]
    # The hole at 2 is chased to its tombstone, then the chain parks.
    kinds = [r.kind for r in parked[0] if r.get("mh") == MH]
    assert kinds.count("mh.gap_request") == 3 and "mh.tombstone" in kinds
    assert _parked(parked, MH)


def test_leave_and_rejoin_while_parked_at_a_fill():
    def script(sim, net):
        mh = net.mobile_hosts[MH]
        _at(sim, 215.0, mh._handle_deliver, _ordered(net, 1, WirelessDeliver))
        _at(sim, 225.0, mh._handle_deliver, _ordered(net, 0, WirelessDeliver))
        _at(sim, 228.0, mh.leave)
        _at(sim, 300.0, mh.join, AP)
        _at(sim, 415.0, mh._handle_deliver, _ordered(net, 3, WirelessDeliver))

    parked, polling = _quiet_pair(script, until=700.0)
    # Stopped at the leave; a fresh chain from the join (first tick at
    # 330), parked by the JoinAck before that tick; resumed on its grid
    # by the hole the delivery at 415 opens.
    assert _times(parked, MH)[:2] == [420.0, 450.0]
    assert _times(polling, MH)[:4] == [210.0, 330.0, 360.0, 390.0]
    mh = parked[2].mobile_hosts[MH]
    assert mh.is_member and mh.tombstones == 1 and _parked(parked, MH)


def _via_ring_ordered(sim, net):
    ag = net.nes[AG]
    _at(sim, 215.0, ag.handle_ring_ordered, _ordered(net, 1))
    _at(sim, 225.0, ag.handle_ring_ordered, _ordered(net, 0))


class _Covering:
    """A token snapshot that orders ``local_seq`` as ``gseq``."""

    def __init__(self, gseq):
        self.gseq = gseq

    def lookup(self, ordering_node, local_seq):
        return self

    def global_for(self, local_seq):
        return self.gseq


def _order(br, gseq):
    """One Order-Assignment pass over one raw entry that ``old_token``
    covers as ``gseq``; the real tokens are put back afterwards."""
    tokens = br.new_token, br.old_token
    br.new_token, br.old_token = None, _Covering(gseq)
    br.wq.insert(WQEntry(ordering_node=BR, source="src:x", local_seq=gseq,
                         payload=("x", gseq), created_at=0.0,
                         arrived_at=br.now))
    assert br.order_assignment() == 1
    br.new_token, br.old_token = tokens


def _via_order_assignment(sim, net):
    br = net.nes[BR]
    _at(sim, 215.0, _order, br, 1)
    _at(sim, 225.0, _order, br, 0)


def _via_tombstone(sim, net):
    ag = net.nes[AG]
    _at(sim, 215.0, ag.handle_ring_ordered, _ordered(net, 1))
    _at(sim, 225.0, ag.handle_gap_unavailable,
        GapUnavailable(net.cfg.gid, 0, 0))


@pytest.mark.parametrize("node, fill", [(AG, _via_ring_ordered),
                                        (BR, _via_order_assignment),
                                        (AG, _via_tombstone)],
                         ids=["ring_ordered", "order_assignment",
                              "tombstone"])
def test_an_ne_parks_its_maintenance_tick_where_the_hole_fills(node, fill):
    parked, polling = _quiet_pair(fill)
    assert _times(parked, node) == []
    assert _times(polling, node) == [210.0 + 30.0 * k for k in range(14)]
    ne = parked[2].nes[node]
    assert ne.mq.front == ne.mq.rear == 1 and ne.mq.missing == 0
    assert ne._gap_state is None and _parked(parked, node)


_MQ_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["insert", "tombstone"]), st.integers(0, 40)),
    st.tuples(st.sampled_from(["deliver", "prune"]), st.integers(0, 6)),
    st.tuples(st.just("anchor"), st.integers(0, 40))), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_MQ_OPS, start=st.integers(0, 5))
def test_the_missing_count_is_a_scan_of_front_to_rear(ops, start):
    mq = MessageQueue(start_seq=start)
    for op, n in ops:
        if op == "insert":
            mq.insert(BufferedMessage(global_seq=n, source="s", local_seq=n,
                                      ordering_node="br:0"))
        elif op == "tombstone":
            if not mq.has(n):
                mq.tombstone_lost(n)
        elif op == "deliver":       # the next n buffered, then advance
            for seq in range(mq.front + 1, mq.front + 1 + n):
                mq.mark_delivered(seq)
            mq.advance_front()
        elif op == "prune":
            mq.prune(n)
        elif not len(mq):
            mq.anchor(n)
        assert mq.missing == sum(
            1 for seq in range(mq.front + 1, mq.rear + 1) if not mq.has(seq))


#: Gap, maintenance and τ ticks that only re-arm and park, per quick
#: pinned window: ``(before the gap and maintenance chains parked at the
#: fill, idle τ ticks before the τ chain parked after every tick, now)``.
IDLE_TICKS = {"fanout_wide": (1077, 48, 0), "token_small": (230, 227, 0),
              "lossy_churn": (1199, 210, 0), "roaming_clean": (769, 148, 0)}


@pytest.mark.parametrize("name", sorted(IDLE_TICKS))
def test_no_tick_fires_only_to_park(name):
    before, tau_before, now = IDLE_TICKS[name]
    idle = []
    fire = PeriodicTimer._fire

    def counted(self):
        sim = self.sim
        emitted = sum(sim.trace.counts.values())
        fire(self)
        if (self.fn.__name__ in CHAINS + ("_tau_tick",)
                and self._parked is not None
                and sim._ctx_actions == 1      # the re-arm alone
                and sum(sim.trace.counts.values()) == emitted):
            idle.append(self.fn.__self__.id)

    workload = perfbench_workload(name)
    _, end = workload.window(quick=True)
    with mock.patch.object(PeriodicTimer, "_fire", counted):
        scenario, _, _ = measure.sim_setup(
            workload.spec(workload.default_seed, quick=True),
            workload.warmup_edges())
        scenario.sim.trace.counting = True
        del idle[:]
        scenario.sim.run(until=end)
    assert len(idle) == now <= (before + tau_before) * 0.03


# ----------------------------------------------------------------------
# (f) The τ chain parks after every tick
# ----------------------------------------------------------------------
def _tau_logging_fire(log):
    """``PeriodicTimer._fire`` that logs every τ tick as ``(node, time,
    key, moved)``, ``moved`` when the tick took an entry out of WQ."""
    fire = PeriodicTimer._fire

    def logged(self):
        if self.fn.__name__ != "_tau_tick":
            return fire(self)
        ne, sim = self.fn.__self__, self.sim
        before, tick = ne.wq.occupancy, (ne.id, sim.now, sim._ctx_root)
        fire(self)
        log.append(tick + (ne.wq.occupancy < before,))
    return logged


def _tau_pair(script, n_br=3, until=1_500.0, armed=None):
    """``script(sim, net)`` on a small network with no source, parked
    and polling; ``script`` runs before ``net.start()`` and schedules
    keyed events (:func:`_at`) from t=200 on.  Returns per run
    ``(records, ticks, net)`` after t=200, and asserts the exact claim:
    equal records, and the parked τ ticks are exactly the polling ticks
    that moved a WQ entry — no idle tick, none missed — plus the first
    tick of the chain a view change arms at node ``armed``, which runs
    before anything can park it."""
    runs = []
    for park in (PeriodicTimer.park, _poll):
        ticks, records = [], []
        with mock.patch.object(PeriodicTimer, "park", park), \
                mock.patch.object(PeriodicTimer, "_fire",
                                  _tau_logging_fire(ticks)):
            sim, net = small_net(seed=3, n_br=n_br)
            script(sim, net)
            net.start()
            sim.run(until=200.0)
            del ticks[:]
            sim.trace.subscribe(None, records.append)
            sim.run(until=until)
        runs.append((records, ticks, net))
    parked, polling = runs
    assert parked[0] == polling[0]
    assert set(parked[1]) < set(polling[1])
    expected = [tick for tick in polling[1]
                if tick[3] or tick == _first_tick(polling, armed)]
    assert parked[1] == expected
    return parked, polling


def _first_tick(run, node):
    return next((tick for tick in run[1] if tick[0] == node), None)


def _own(sim, net, t, seq, br=BR):
    """A raw message from ``br``'s own source at ``t``."""
    _at(sim, t, net.nes[br].handle_source_data,
        SourceData(net.cfg.gid, "src:x", seq, ("x", seq), 0.0))


def _once(sim, kind, node, after, fn):
    """Call ``fn(record)`` at the first ``kind`` record of ``node``
    after ``after``."""
    pending = [fn]

    def seen(rec):
        if pending and rec.get("node") == node and rec.time > after:
            pending.pop()(rec)
    sim.trace.subscribe(kind, seen)


def _ordered_at(run):
    return [(r["node"], r.time) for r in run[0] if r.kind == "ordered"]


def test_an_own_entry_waits_for_its_hold_and_then_the_pass():
    def script(sim, net):
        _own(sim, net, 215.0, 0)

    parked, _ = _tau_pair(script)
    # One tick per top-ring node, each the first grid tick after that
    # node passed the token whose snapshot covers the entry.
    assert sorted(n for n, *_ in parked[1]) == ["br:0", "br:1", "br:2"]
    passes = [(r["node"], r.time) for r in parked[0]
              if r.kind == "token.pass" and r.time > 215.0]
    for node, t in _ordered_at(parked):
        assert any(n == node and t - 5.0 < at < t for n, at in passes)


def test_a_ring_raw_that_arrives_already_covered():
    def script(sim, net):
        _own(sim, net, 215.0, 0)
        # Re-delivered once br:1 ordered it: WQ takes it back, a
        # retained snapshot covers it, and a tick drops the duplicate.
        _once(sim, "ordered", "br:1", 215.0, lambda rec: _at(
            sim, rec.time + 1.0, net.nes["br:1"].handle_ring_raw,
            RingRaw(net.cfg.gid, BR, "src:x", 0, ("x", 0), 0.0)))

    parked, _ = _tau_pair(script)
    assert [n for n, *_ in parked[1]].count("br:1") == 2
    assert len(_ordered_at(parked)) == 3
    assert parked[2].nes["br:1"].wq.occupancy == 0


def _kill_held_token(br):
    held = br.held_token
    for tid, gseq in ((held.token_id, held.next_global_seq),
                      ((99, "br:2"), held.next_global_seq + 1)):
        br.handle_token_announce(TokenAnnounce(br.cfg.gid, "br:2", tid,
                                               gseq, 0))


def test_a_killed_held_token_releases_its_snapshot():
    def script(sim, net):
        _own(sim, net, 215.0, 0)
        _once(sim, "token.hold", BR, 215.0, lambda rec: _at(
            sim, rec.time + 0.25, _kill_held_token, net.nes[BR]))

    parked, _ = _tau_pair(script)
    kinds = [r.kind for r in parked[0]]
    assert "token.destroyed" in kinds and "token.pass" in kinds
    # The token died at br:0, so only br:0 orders the entry.
    assert [n for n, _ in _ordered_at(parked)] == [BR]


def test_a_pass_the_drop_hook_swallows_still_wakes():
    def script(sim, net):
        _own(sim, net, 215.0, 0)
        _at(sim, 215.0, setattr, net.nes[BR], "_test_drop_token_passes", 1)

    parked, _ = _tau_pair(script)
    assert "test.token_dropped" in [r.kind for r in parked[0]]
    assert [n for n, _ in _ordered_at(parked)] == [BR]


def test_a_singleton_ring_orders_after_each_self_pass():
    def script(sim, net):
        _own(sim, net, 215.0, 0)
        _own(sim, net, 400.0, 1)

    parked, _ = _tau_pair(script, n_br=1)
    assert [n for n, _ in _ordered_at(parked)] == [BR, BR]
    assert len(parked[1]) == 2


def test_a_regenerated_token_orders_what_waited_for_it():
    def script(sim, net):
        _at(sim, 215.0, setattr, net.nes["br:1"],
            "_test_drop_token_passes", 1)
        _own(sim, net, 300.0, 0)
        _at(sim, 500.0, net.nes[BR].signal_token_loss)

    parked, _ = _tau_pair(script)
    kinds = [r.kind for r in parked[0]]
    assert "token.regenerated" in kinds
    assert sorted(n for n, _ in _ordered_at(parked)) == [
        "br:0", "br:1", "br:2"]
    assert min(t for _, t in _ordered_at(parked)) > 500.0


def test_a_view_change_that_arms_tau():
    """An AG promoted into the top tier gets its τ chain armed by the
    view refresh: the first tick finds nothing and parks, and nothing
    it holds ever becomes coverable, while the polling chain ticks on."""
    def promote(net):
        net.hierarchy.tier_of[AG] = Tier.BR
        net._refresh_views()

    def script(sim, net):
        _at(sim, 300.0, promote, net)
        _own(sim, net, 400.0, 0)

    parked, polling = _tau_pair(script, armed=AG)
    assert [t for n, t, *_ in parked[1] if n == AG] == [
        _first_tick(polling, AG)[1]]
    assert len([n for n, *_ in polling[1] if n == AG]) > 100
    assert len(_ordered_at(parked)) == 3


def test_a_split_and_merge_of_the_top_ring():
    """The view refreshes of a split and a merge, with a token
    regenerated in the half that lost it and killed at the merge.  Each
    refresh offers every node ``_arm_tau_after_view``; a BR stays a BR,
    so it meets a running chain, parked or not, and ``start()`` keeps
    that chain's grid."""
    def script(sim, net):
        _own(sim, net, 215.0, 0)
        _at(sim, 250.0, net.maintenance.split_top_ring,
            [BR, "br:1"], ["br:2"])
        _own(sim, net, 400.0, 1)        # never reaches br:2
        _at(sim, 450.0, net.nes["br:2"].signal_token_loss)
        _at(sim, 600.0, net.maintenance.merge_top_rings,
            "ring:br.a", "ring:br.b")
        _own(sim, net, 800.0, 2)

    parked, _ = _tau_pair(script)
    kinds = [r.kind for r in parked[0]]
    assert "token.regenerated" in kinds and "token.destroyed" in kinds
    assert sorted(n for n, _ in _ordered_at(parked)) == [
        "br:0", "br:0", "br:0", "br:1", "br:1", "br:1", "br:2", "br:2"]
