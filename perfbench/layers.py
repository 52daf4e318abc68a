"""The traced pass: one value for every ``per_layer`` metric.

End-to-end numbers never come from here.  A short untraced measure
pass gives the noise-floor wall the tracing overhead is judged
against; then one run under :mod:`perfbench.tracing` gives self-time
shares and boundary counts, one run under ``cProfile`` gives the
interpreter call count, and isolated micro-runs (*probes*) time each
layer's public calls on their own.  The ``shard`` layer is measured on
the ``fanout_wide`` network from ``ShardRunResult`` — nothing is
patched inside workers.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

from repro.bench.measure import calibrate
from repro.metrics.report import percentile
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.obs.session import ObsSession
from repro.obs.spans import SpanCollector
from repro.shard import record_sharded, run_sharded
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus
from repro.validation.record import first_divergence, record_spec

from perfbench import measure as m
from perfbench.metrics import PER_LAYER
from perfbench.tracing import DRIVERS, Tracer
from perfbench.workloads import Workload

#: Wall seconds per logical second of the paced live run.
PACED_SCALE = 0.5

PROBE_BATCHES = 7
PROBE_OPS = 4000


# ----------------------------------------------------------------------
# Probes: each layer's public calls, alone
# ----------------------------------------------------------------------
def _per_op(batch: Callable[[], None], ops: int = PROBE_OPS) -> float:
    """Seconds per operation, minimum over the batches."""
    best = float("inf")
    for _ in range(PROBE_BATCHES):
        gc.collect()
        t0 = time.perf_counter()
        batch()
        best = min(best, time.perf_counter() - t0)
    return best / ops


class _Sink(NetNode):
    """A node that accepts whatever arrives (through its channel, if any)."""

    chan: Optional[ReliableChannel] = None

    def on_message(self, msg: Message) -> None:
        if self.chan is not None:
            self.chan.accept(msg)


def _probe_null_event() -> float:
    # repro.bench's calibration loop is exactly this probe.
    return 1.0 / max(calibrate(PROBE_OPS) for _ in range(PROBE_BATCHES))


def _two_nodes(reliable: bool):
    sim = Simulator(seed=0, trace=TraceBus(counting=False))
    fabric = Fabric(sim)
    a, b = _Sink(fabric, "a"), _Sink(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    if reliable:
        a.chan = ReliableChannel(a)
        b.chan = ReliableChannel(b)
    return sim, a


def _probe_hop() -> float:
    def batch() -> None:
        sim, a = _two_nodes(reliable=False)
        for _ in range(PROBE_OPS):
            a.send("b", Message())
        sim.run()
    return _per_op(batch)


def _probe_roundtrip() -> float:
    def batch() -> None:
        sim, a = _two_nodes(reliable=True)
        for _ in range(PROBE_OPS):
            a.chan.send("b", Message())
        sim.run()       # segment, accept, SegAck, accept, RTO cancel
    return _per_op(batch)


def _probe_emit() -> float:
    bus = TraceBus(counting=False)

    def batch() -> None:
        emit = bus.emit
        for _ in range(PROBE_OPS):
            emit(0.0, "probe.kind", a=1, b=2)
    return _per_op(batch)


def probes() -> Dict[str, float]:
    return {"engine.null_event_us": _probe_null_event() * 1e6,
            "fabric.hop_us": _probe_hop() * 1e6,
            "transport.roundtrip_us": _probe_roundtrip() * 1e6,
            "trace.emit_nosub_ns": _probe_emit() * 1e9}


# ----------------------------------------------------------------------
# Counters read at the window edges
# ----------------------------------------------------------------------
_TRANSPORT_FIELDS = ("sent", "retransmitted", "gave_up", "duplicates",
                     "delivered")


def _snapshot(net) -> Dict[str, int]:
    """Public counters of the fabric and of every reliable channel."""
    snap = dict.fromkeys(_TRANSPORT_FIELDS, 0)
    for group in (net.nes, net.mobile_hosts, net.sources):
        for node in group.values():
            stats = node.chan.stats
            for f in _TRANSPORT_FIELDS:
                snap[f] += getattr(stats, f)
    snap["fabric_sent"] = net.fabric.messages_sent
    snap["fabric_dropped"] = net.fabric.messages_dropped
    return snap


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _traced_metrics(tracer: Tracer, delta: Dict[str, int], events: int,
                    deliveries: int, sim_s: float,
                    runtime_cls: str) -> Dict[str, float]:
    """Metrics that come from the shims and the edge counters."""
    kinds = tracer.kinds
    schedules = tracer.count(f"{runtime_cls}.schedule_at",
                             "Simulator.schedule_keyed")
    segments = delta["sent"] + delta["retransmitted"]
    mq_ops = tracer.count(
        "MessageQueue.insert", "MessageQueue.mark_delivered",
        "MessageQueue.advance_front", "MessageQueue.prune",
        "WorkingQueue.insert", "WorkingQueue.remove")
    return {
        "engine.events_per_delivery": _ratio(events, deliveries),
        "engine.schedules_per_delivery": _ratio(schedules, deliveries),
        "engine.cancels_per_schedule": _ratio(tracer.effective_cancels,
                                              schedules),
        "engine.self_share": tracer.share("engine"),
        "fabric.sends_per_delivery": _ratio(delta["fabric_sent"],
                                            deliveries),
        "fabric.drop_share": _ratio(delta["fabric_dropped"],
                                    delta["fabric_sent"]),
        "fabric.self_share": tracer.share("fabric"),
        "transport.segments_per_delivery": _ratio(segments, deliveries),
        "transport.retransmit_share": _ratio(delta["retransmitted"],
                                             segments),
        "transport.duplicate_share": _ratio(
            delta["duplicates"], delta["duplicates"] + delta["delivered"]),
        "transport.gave_up": delta["gave_up"],
        "transport.self_share": tracer.share("transport"),
        "core.self_share": tracer.share("core"),
        "core.mq_ops_per_delivery": _ratio(mq_ops, deliveries),
        "core.token_snapshots_per_sim_s": _ratio(
            tracer.count("OrderingToken.snapshot"), sim_s),
        "core.token_holds_per_sim_s": _ratio(kinds["token.hold"], sim_s),
        "core.gap_requests": kinds["gap.request"] + kinds["mh.gap_request"],
        "core.handoffs": kinds["mh.handoff"],
        "core.tombstones": kinds["mh.tombstone"] + kinds["ne.tombstone"],
        "trace.emits_per_delivery": _ratio(tracer.count("TraceBus.emit"),
                                           deliveries),
        "trace.self_share": tracer.share("trace"),
        "drivers.self_share": tracer.share(DRIVERS),
        "live.loop_self_share": tracer.share("live"),
    }


def _buffer_peak(net) -> int:
    return max((r["wq_peak"] + r["mq_peak"] for r in net.buffer_reports()),
               default=0)


def _profiled_calls(profile: cProfile.Profile) -> int:
    return pstats.Stats(profile).total_calls


# ----------------------------------------------------------------------
# One traced pass per backend
# ----------------------------------------------------------------------
def _trace_sim(wl: Workload, spec, quick: bool, spans_path: Optional[str],
               base: Dict[str, Any]) -> Dict[str, float]:
    _, end = wl.window(quick)

    scenario, _, _ = m.sim_setup(spec, wl.warmup_edges())
    sim, net = scenario.sim, scenario.net
    ev0, dl0 = sim.events_processed, net.total_app_deliveries()
    before, compactions0 = _snapshot(net), sim.compactions
    gc.collect()
    tracer = Tracer()
    with tracer:
        t0 = time.perf_counter()
        sim.run(until=end)
        traced_wall = time.perf_counter() - t0
    after = _snapshot(net)
    events = sim.events_processed - ev0
    deliveries = net.total_app_deliveries() - dl0
    if spans_path is not None:
        tracer.write_spans(spans_path)

    out = _traced_metrics(
        tracer, {k: after[k] - before[k] for k in after},
        events, deliveries, base["sim_s"], "Simulator")
    out["engine.peak_heap"] = sim.peak_heap
    out["engine.compactions"] = sim.compactions - compactions0
    out["core.buffer_peak"] = _buffer_peak(net)
    out["harness.trace_overhead_ratio"] = _ratio(traced_wall, base["wall_s"])
    # A shimmed run must be the same run.
    out["_pure"] = (events, deliveries) == (base["events"],
                                            base["deliveries"])

    scenario, _, _ = m.sim_setup(spec, wl.warmup_edges())
    dl0 = scenario.net.total_app_deliveries()
    gc.collect()
    profile = cProfile.Profile()
    profile.enable()
    scenario.sim.run(until=end)
    profile.disable()
    out["interp.py_calls_per_delivery"] = _ratio(
        _profiled_calls(profile),
        scenario.net.total_app_deliveries() - dl0)
    return out


def _obs_layer(wl: Workload, seed: int, quick: bool,
               base: Dict[str, Any]) -> Dict[str, float]:
    """Noise-floor wall with an observer attached over the wall without."""
    def session(scenario) -> None:
        ObsSession(scenario.sim, horizon_ms=scenario.duration_ms,
                   name=wl.name)

    def spans(scenario) -> None:
        SpanCollector().attach(scenario.sim.trace, sim=scenario.sim)

    out = {}
    for name, attach in (("obs.session_tax_ratio", session),
                         ("obs.spans_tax_ratio", spans)):
        taxed = m.measure(wl, seed, 0.0, quick, attach=attach)
        out[name] = _ratio(taxed["wall_s"], base["wall_s"])
    return out


def _trace_live(wl: Workload, spec, quick: bool, spans_path: Optional[str],
                base: Dict[str, Any]) -> Dict[str, float]:
    tracer = Tracer()
    before: Dict[str, int] = {}

    def start_tracing(run) -> None:
        before.update(_snapshot(run.scenario.net))
        gc.collect()
        tracer.install()

    # Shims go on before the loop starts, so the traced span is the
    # whole run, warm-up included; it is compared with the same span.
    try:
        run, _, walls, _ = m.live_run(spec, [], on_built=start_tracing)
    finally:
        tracer.uninstall()
    traced_wall = sum(walls)
    net, rt = run.scenario.net, run.runtime
    after = _snapshot(net)
    events = rt.events_processed
    deliveries = run.report()["delivered"]
    if spans_path is not None:
        tracer.write_spans(spans_path)
    out = _traced_metrics(
        tracer, {k: after[k] - before[k] for k in after},
        events, deliveries, spec.duration_ms / 1000.0, "LiveRuntime")
    out["core.buffer_peak"] = _buffer_peak(net)
    out["harness.trace_overhead_ratio"] = _ratio(
        traced_wall, base["warmup_s"] + base["wall_s"])
    out["live.callbacks_per_wall_s"] = _ratio(base["events"], base["wall_s"])
    out["_pure"] = True     # live interleaving is not bit-repeatable

    profile = cProfile.Profile()
    try:
        run, _, _, _ = m.live_run(spec, [],
                                  on_built=lambda r: profile.enable())
    finally:
        profile.disable()
    out["interp.py_calls_per_delivery"] = _ratio(
        _profiled_calls(profile), run.report()["delivered"])

    out.update(_paced_live(spec))
    return out


def _paced_live(spec) -> Dict[str, float]:
    """One run at a sustainable pace with monitors on: lag and wall latency.

    The lag probe is open-loop: one callback every 10 logical ms, each
    timed from the wall instant it was *due* (relative to the probe at
    t=0), so a stall shows on every probe it delays.
    """
    scale_ms = PACED_SCALE          # wall ms per logical ms
    lags: List[float] = []
    origin: List[float] = []
    sent_at: Dict[Any, float] = {}
    wall_lat: List[float] = []

    def lag_probe(due_ms: float) -> None:
        now = time.perf_counter()
        if not origin:
            origin.append(now)
        lags.append((now - origin[0]) * 1000.0 - due_ms * scale_ms)

    def on_send(rec) -> None:
        sent_at[(rec["source"], rec["local_seq"])] = time.perf_counter()

    def on_deliver(rec) -> None:
        t_sent = sent_at.get((rec["source"], rec["local_seq"]))
        if t_sent is not None and rec.time >= spec.warmup_ms:
            wall_lat.append((time.perf_counter() - t_sent) * 1000.0)

    cpu: List[float] = []

    def attach(run) -> None:
        rt = run.runtime
        for i in range(int(spec.duration_ms // 10) + 1):
            rt.schedule_at(i * 10.0, lag_probe, i * 10.0, owner=None)
        rt.trace.subscribe("source.send", on_send)
        rt.trace.subscribe("mh.deliver", on_deliver)
        cpu.append(time.process_time())

    run, _, walls, _ = m.live_run(spec, [], time_scale=PACED_SCALE,
                                  monitors=True, on_built=attach)
    cpu_s = time.process_time() - cpu[0]
    return {
        "live.lag_p50_ms": percentile(lags, 50),
        "live.lag_p99_ms": percentile(lags, 99),
        "live.lag_max_ms": max(lags),
        "live.latency_wall_p50_ms": percentile(wall_lat, 50),
        "live.latency_wall_p99_ms": percentile(wall_lat, 99),
        "live.paced_cpu_share": _ratio(cpu_s, sum(walls)),
        "_paced_violations": len(run.violations()),
        "_lag_samples": len(lags),
        "_wall_latency_samples": len(wall_lat),
    }


#: Worker processes of the sharded runs (= nproc of the container).
SHARDS = 2

#: Timing runs behind the ``shard.*`` metrics: sharded ones, and the
#: sequential references interleaved before every other one of them.
SHARD_RUNS = 5
SEQ_RUNS = 3


def _timed_sharded(spec, shards: int):
    """One ``run_sharded`` call; returns ``(result, setup_s)`` where
    set-up is everything outside the coordinator's parallel section
    (spawn, partition, worker build)."""
    gc.collect()
    t_start = time.perf_counter()
    result = run_sharded(spec, shards)
    return result, time.perf_counter() - t_start - result.wall_s


def _shard_layer(wl: Workload, seed: int, quick: bool,
                 base: Dict[str, Any]) -> Dict[str, float]:
    """The whole run (join storm included: no warm-up split is reachable
    from outside) on 2 workers against the sequential engine,
    interleaved, then one recorded pair for trace identity.  A sharded
    run cannot be sliced from outside either, so the walls are minima
    over whole runs — the noisiest numbers of the benchmark — and every
    run's wall goes into the notes beside them."""
    t_begin = time.perf_counter()
    spec = wl.spec(seed, quick)
    seq, par, setups = [], [], []
    for i in range(SHARD_RUNS):
        if i % 2 == 0 and len(seq) < SEQ_RUNS:
            seq.append(_timed_sharded(spec, 1)[0])
        result, setup_s = _timed_sharded(spec, SHARDS)
        par.append(result)
        setups.append(setup_s)
    seq1 = min(seq, key=lambda r: r.wall_s)
    par2 = min(par, key=lambda r: r.wall_s)
    seq_walls = [r.wall_s for r in seq]
    par_walls = [r.wall_s for r in par]
    in_shard = statistics.mean(
        (wall - wait) / events for wall, wait, events in
        zip(par2.shard_walls, par2.barrier_wait_s, par2.shard_events))
    diverged = first_divergence(record_spec(spec).lines,
                                record_sharded(spec, SHARDS))
    return {
        "shard.wall_s_per_sim_s": par2.wall_s / (spec.duration_ms / 1000.0),
        "shard.setup_s": statistics.median(setups),
        "shard.speedup_vs_seq": _ratio(seq1.wall_s, par2.wall_s),
        "shard.barrier_wait_share": _ratio(
            statistics.mean(par2.barrier_wait_s), par2.wall_s),
        "shard.in_shard_slowdown": _ratio(in_shard,
                                          seq1.wall_s / seq1.events),
        "shard.windows": par2.windows,
        "shard.window_stall_share": _ratio(sum(par2.stalled_windows),
                                           sum(par2.windows_per_shard)),
        "shard.exports_per_window": _ratio(par2.exported, par2.windows),
        "shard.event_balance": _ratio(min(par2.shard_events),
                                      max(par2.shard_events)),
        "shard.rebalances": par2.rebalances,
        "_shard_diverged": (None if diverged is None
                            else diverged.describe()),
        "_shard_seq_wall_s": seq_walls,
        "_shard_par_wall_s": par_walls,
        "_shard_par_wall_iqr_share": m.iqr_share(par_walls),
        "_shard_speedup_of_medians": _ratio(statistics.median(seq_walls),
                                            statistics.median(par_walls)),
        "_shard_elapsed_s": time.perf_counter() - t_begin,
    }


_TRACE = {"sim": _trace_sim, "live": _trace_live}
_EXTRA = {"obs": _obs_layer, "shard": _shard_layer}


def trace_pass(wl: Workload, seed: int, quick: bool = False,
               out_dir: Optional[str] = None) -> Dict[str, Any]:
    """Every per-layer metric of one workload (0 where a layer is idle).

    Keys starting with ``_`` are harness notes (purity, sample counts),
    not metrics.
    """
    spec = wl.spec(seed, quick)
    base = m.measure(wl, seed, 0.0, quick)
    spans_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans_{wl.name}.jsonl")
    out: Dict[str, Any] = {name: 0.0 for name, _, _, _ in PER_LAYER}
    out.update(_TRACE[wl.backend](wl, spec, quick, spans_path, base))
    out["runner.build_s"] = base["build_s"]
    out["runner.warmup_s"] = base["warmup_s"]
    out["runner.join_events"] = base["join_events"]
    out["harness.slice_spread"] = base["whole_wall_iqr_share"]
    out["_deliveries"] = base["deliveries"]
    for layer in wl.extra_layers:
        out.update(_EXTRA[layer](wl, seed, quick, base))
    out.update(probes())
    return out
