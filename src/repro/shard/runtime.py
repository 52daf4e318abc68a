"""The conservative window runtime: K worker processes, one coordinator.

Execution model (bulk-synchronous conservative PDES):

* Every worker **builds the full scenario** from the spec — build is
  deterministic, so replicas agree on all structural state — then masks
  execution to the entities its shard owns (the engine gate drops
  non-local events at schedule time, the fabric suppresses non-local
  sends, the trace gate silences non-local emissions).
* **Control-plane events** (topology maintenance, crash schedules,
  mobility and churn decisions) carry ``owner=None`` and run
  *replicated* in every shard, keeping shared structural state —
  hierarchy, liveness flags, ownership map — identical everywhere
  without any cross-shard state transfer.
* **Data-plane events** run only on their owner's shard.  A message to
  a remote node is exported with the arrival time and causal key the
  sequential engine would have used, batched per destination shard,
  and imported into the destination's heap at the next
  synchronization.
* Workers advance in **lock-step rounds**.  Every round each live
  shard reports once — its front, its earliest pending event and the
  exports it produced — and the coordinator answers all of them with
  the same reply: the merged probe data when all are parked at the same
  probe, otherwise the tail or one grant ``min(horizon, lb +
  lookahead)``.  ``lb`` is the earliest pending event or routed arrival
  over all shards, and ``lookahead`` the one scalar
  :func:`repro.shard.partition.lookahead_of` gives: the smallest cut
  latency, capped by the wireless latency.  Anything a shard sends at
  ``t >= lb`` arrives at or after ``t + lookahead >= grant``, so no
  arrival, nor any chain of them, lands inside the window.
* Events registered as **probes** (churn ticks, token-holder crashes)
  need globally-gathered inputs: every shard pauses exactly at the
  probe's ``(time, key)``, the coordinator merges the per-shard
  gathers, and the event then executes replicated with identical
  inputs.  Probe lists are replicated and every shard runs to the same
  grant, so all shards reach a probe in the same round: a round is all
  probes or all windows, never mixed.
* **Ownership is static**: the partition plan fixes every entity's
  shard for the whole run (entities created mid-run are adopted onto
  an existing entity's shard).  An MH that roams under another shard's
  AP is served over the cut — correctness never depends on placement,
  because the wireless latency caps the lookahead.

``shards=1`` bypasses all of this and runs the plain sequential
engine.  It and every worker build through
:func:`repro.experiments.runner.observed_scenario` — the same seam
``run_point``, ``record_spec`` and the live builder build through — so
what a non-sharded caller observes cannot drift behind the parallel
backend's back.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.experiments.grid import RunPoint
from repro.experiments.results import RunResult
from repro.experiments.runner import (Harvest, network_totals,
                                      observed_scenario)
from repro.experiments.spec import ExperimentSpec
from repro.obs.session import ObsSession
from repro.obs.spans import SpanCollector
from repro.shard.context import ShardContext
from repro.shard.partition import (PartitionPlan, cut_edges, lookahead_of,
                                   partition_spec)
from repro.shard.record import KeyedRecorder, merge_streams
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus, line_to_record, write_trace_lines
from repro.validation.record import TraceRecorder, replay

_INF = float("inf")

#: How long the coordinator waits for the next message of a running
#: worker before declaring it hung.  Sized from the ``xl`` ladder rung
#: at 4 shards, whose longest silent
#: interval is the worker's spawn + scenario build before ``ready``,
#: 0.23–0.40 s on the 2-core container (windows stay under 0.1 s): a
#: 150x margin, which also clears the 1M-endpoint ``metro`` build.
WORKER_SILENCE_DEADLINE_S = 60.0


@dataclass
class ShardRunResult:
    """Aggregate outcome of one sharded run."""

    n_shards: int
    #: The run's one lookahead (``inf`` for sequential runs).
    lookahead: float
    horizon: float
    windows: int = 0
    windows_per_shard: List[int] = field(default_factory=list)
    probe_syncs: int = 0
    events: int = 0
    shard_events: List[int] = field(default_factory=list)
    shard_walls: List[float] = field(default_factory=list)
    stalled_windows: List[int] = field(default_factory=list)
    barrier_wait_s: List[float] = field(default_factory=list)
    exported: int = 0
    peak_heap: int = 0
    compactions: int = 0
    rebalances: int = 0  #: always 0 (static ownership); perfbench reads it
    #: :func:`~repro.experiments.runner.network_totals` of each worker's
    #: own nodes, summed (``peak_buffer``: max).
    totals: Dict[str, int] = field(default_factory=dict)
    build_s: float = 0.0
    wall_s: float = 0.0
    trace_counts: Dict[str, int] = field(default_factory=dict)
    merged_lines: Optional[List[str]] = None
    #: The run's ``obs`` section, timeline rows included (``obs=True``
    #: runs only).
    obs_report: Optional[Dict[str, Any]] = None
    #: Merged span events across shards (``spans=True`` runs only);
    #: assemble with :func:`repro.obs.spans.assemble`.
    span_events: Optional[List[Tuple]] = None

    @property
    def events_per_sec(self) -> float:
        """Aggregate engine throughput over the parallel section."""
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    def run_result(self, point: Union[RunPoint, ExperimentSpec]) -> RunResult:
        """The run's :class:`RunResult`, equal to ``run_point(point)``'s
        apart from the wall time and the ``shard`` section (and the
        ``obs`` section of an ``obs=True`` run).

        The merged trace (a ``record=True`` run's) replays through the
        standard :class:`Harvest` for everything the trace carries;
        :attr:`totals` stands in for the net, which no one process has.
        """
        if self.merged_lines is None:
            raise ValueError("a sharded RunResult is harvested from the "
                             "merged trace: run with record=True")
        harvest = Harvest(point)
        harvest.totals = self.totals
        replay([line_to_record(line) for line in self.merged_lines],
               [harvest])
        shard = {
            "shards": self.n_shards,
            "lookahead_ms": self.lookahead if self.lookahead != _INF
            else None,
            "windows": self.windows,
            "windows_per_shard": list(self.windows_per_shard),
            "probe_syncs": self.probe_syncs,
            "window_stalls": sum(self.stalled_windows),
            "window_stalls_per_shard": list(self.stalled_windows),
            "barrier_wait_s": [round(b, 6) for b in self.barrier_wait_s],
            "shard_wall_s": [round(w, 6) for w in self.shard_walls],
            "events": self.events,
            "shard_events": list(self.shard_events),
            "exported": self.exported,
            "peak_heap": self.peak_heap,
            "compactions": self.compactions,
            "wall_s": round(self.wall_s, 6),
            "build_s": round(self.build_s, 6),
            "events_per_sec": round(self.events_per_sec, 1),
        }
        # Build plus run, as a sequential run's wall_time_s counts.
        return replace(harvest.result, shard=shard, obs=self.obs_report,
                       wall_time_s=self.build_s + self.wall_s)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _bind(ctx: ShardContext, scenario) -> None:
    """Attach probe gatherers to a built scenario."""
    net = scenario.net

    def membership() -> Dict[str, bool]:
        return {mid: mh.is_member for mid, mh in net.mobile_hosts.items()
                if ctx.is_local(mid)}

    def token_holders() -> List[str]:
        # Consumed by fault-plan actions that read the token holder: an
        # @token_holder crash or an @token_holder_subtree partition (the
        # fault driver registers its activation event under this kind).
        return [ne.id for ne in net.top_ring_nes()
                if ctx.is_local(ne.id) and ne.held_token is not None]

    ctx.gatherers["churn.membership"] = membership
    ctx.gatherers["token.holders"] = token_holders


def _windowed_run(sim, ctx: ShardContext, net, conn,
                  horizon: float) -> Dict[str, Any]:
    """Drive the engine through lock-step rounds."""
    fabric = net.fabric
    front = 0.0
    windows = stalls = probes = 0
    barrier_wait = 0.0

    def sync(kind: str, **extra: Any) -> Dict[str, Any]:
        nonlocal barrier_wait
        conn.send({"t": kind, "front": front, "earliest": sim.peek_entry(),
                   "exports": ctx.take_outbox(), **extra})
        t0 = time.perf_counter()
        reply = conn.recv()
        barrier_wait += time.perf_counter() - t0
        for (time_, key, dst, msg) in reply["imports"]:
            sim.schedule_keyed(time_, key, dst, fabric._arrive, dst, msg)
        return reply

    def run_probe(probe) -> None:
        nonlocal probes
        probe_t, probe_k, kind, _ev = probe
        sim.run_window(probe_t, probe_k)
        reply = sync("probe", probe=(kind, probe_t, probe_k),
                     data=ctx.gather(kind))
        ctx.stash_probe(reply["probe_data"])
        entry = sim.peek_entry()
        if entry != (probe_t, probe_k):  # pragma: no cover - invariant
            raise RuntimeError(f"probe desync: expected {(probe_t, probe_k)}, "
                               f"heap top is {entry}")
        sim.step()
        ctx.pop_probe()
        probes += 1

    while True:
        reply = sync("window")
        if reply.get("tail"):
            break
        granted = reply["grant"]
        probe = ctx.peek_probe()
        while probe is not None and (probe[0], probe[1]) < (granted, 0):
            run_probe(probe)
            probe = ctx.peek_probe()
        if sim.run_window(granted) == 0:
            stalls += 1
        front = granted
        windows += 1

    # Tail: every shard sits at the horizon, so only events at exactly
    # t == horizon remain and their exports land beyond it.  Probes at
    # the horizon still need their gather exchange.
    while True:
        probe = ctx.peek_probe()
        if probe is not None and probe[0] <= horizon:
            run_probe(probe)
            continue
        sim.run_window(horizon, inclusive=True)
        break

    if sim.now < horizon:
        sim.now = horizon
    return {"windows": windows, "stalls": stalls, "probes": probes,
            "barrier_wait_s": barrier_wait}


def _worker_main(conn, spec_dict: Dict[str, Any], plan: PartitionPlan,
                 shard_id: int, record: bool, obs: bool = False,
                 spans: float = 0.0) -> None:
    try:
        spec = ExperimentSpec.from_dict(spec_dict)
        # Unrecorded (benchmark) runs use the same counting=False trace
        # fast path sequential benchmark runs use, so speedup ratios
        # compare like with like; recorded runs need counts for
        # the aggregate-equals-sequential cross-check.
        sim = Simulator(seed=spec.seed,
                        trace=TraceBus(counting=record))
        ctx = ShardContext(shard_id, plan, sim)
        sim.shard = ctx
        sim.gate = ctx.is_local
        sim.trace.gate = ctx.emission_gate
        recorder = KeyedRecorder() if record else None
        # The trace gate masks subscriber callbacks to locally-owned
        # records, and transport hooks only fire inside owner-gated
        # events, so each span event lands on exactly one shard —
        # the merged streams equal the sequential collection.
        collector = SpanCollector(rate=spans) if spans else None
        session = ObsSession(horizon_ms=spec.duration_ms,
                             name=f"shard{shard_id}") if obs else None

        t0 = time.perf_counter()
        with observed_scenario(spec, recorder, collector, session,
                               sim=sim) as scenario:
            build_s = time.perf_counter() - t0
            ctx.lookahead = lookahead_of(
                cut_edges(scenario.net.fabric, plan),
                scenario.net.wireless.latency)
            _bind(ctx, scenario)

            conn.send({"t": "ready", "build_s": build_s,
                       "lookahead": ctx.lookahead})
            go = conn.recv()
            if go.get("t") != "go":
                raise RuntimeError(
                    f"expected 'go' after 'ready', got {go!r}")

            # The one difference from a sequential run: the engine is
            # driven through the coordinator's lock-step rounds.
            t1 = time.perf_counter()
            scenario.start()
            loop_stats = _windowed_run(sim, ctx, scenario.net, conn,
                                       horizon=spec.duration_ms)
            wall = time.perf_counter() - t1

        sub_report = None
        if session is not None:
            sub_report = session.report()
            sub_report["shard"] = shard_id
            sub_report["shard_windows"] = {
                "stalls": loop_stats["stalls"],
                "barrier_wait_s": round(loop_stats["barrier_wait_s"], 6),
            }

        conn.send({
            "t": "done",
            "events": sim.events_processed,
            "wall_s": wall,
            "build_s": build_s,
            "windows": loop_stats["windows"],
            "stalls": loop_stats["stalls"],
            "barrier_wait_s": loop_stats["barrier_wait_s"],
            "probes": loop_stats["probes"],
            "exported": ctx.exported,
            "obs": sub_report,
            "spans": collector.events if collector is not None else None,
            "peak_heap": sim.peak_heap,
            "compactions": sim.compactions,
            "totals": network_totals(scenario.net, ctx.is_local),
            "trace_counts": dict(sim.trace.counts),
            "entries": recorder.entries if recorder is not None else None,
        })
    except BaseException:
        try:
            conn.send({"t": "error", "tb": traceback.format_exc()})
        except Exception:  # pragma: no cover - broken pipe on teardown
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
def _merge_probe_data(kind: str, datas: List[Any]) -> Any:
    if kind == "churn.membership":
        merged: Dict[str, bool] = {}
        for d in datas:
            merged.update(d)
        return merged
    if kind == "token.holders":
        merged_list: List[str] = []
        for d in datas:
            merged_list.extend(d)
        return merged_list
    raise ValueError(f"unknown probe kind {kind!r}")


def _sequential_result(spec: ExperimentSpec, record: bool,
                       obs: bool = False,
                       spans: float = 0.0) -> ShardRunResult:
    """The sequential engine path, packaged as a 1-shard result."""
    sim = Simulator(seed=spec.seed, trace=TraceBus(counting=record))
    recorder = TraceRecorder() if record else None
    collector = SpanCollector(rate=spans) if spans else None
    session = ObsSession(horizon_ms=spec.duration_ms,
                         name=spec.name) if obs else None
    t0 = time.perf_counter()
    with observed_scenario(spec, recorder, collector, session,
                           sim=sim) as scenario:
        t1 = time.perf_counter()
        scenario.run()
        t2 = time.perf_counter()
    result = ShardRunResult(
        n_shards=1,
        lookahead=float("inf"),
        horizon=spec.duration_ms,
        events=sim.events_processed,
        shard_events=[sim.events_processed],
        shard_walls=[t2 - t1],
        windows_per_shard=[0],
        stalled_windows=[0],
        barrier_wait_s=[0.0],
        peak_heap=sim.peak_heap,
        compactions=sim.compactions,
        totals=network_totals(scenario.net),
        build_s=t1 - t0,
        wall_s=t2 - t1,
        trace_counts=dict(sim.trace.counts),
        merged_lines=list(recorder.lines) if recorder is not None else None,
    )
    if session is not None:
        result.obs_report = session.report()
    if collector is not None:
        result.span_events = collector.events
    return result


def _assemble_obs(result: ShardRunResult, spec: ExperimentSpec,
                  reports: List[Dict[str, Any]]) -> None:
    """Roll the per-shard reports into the run's ``obs`` section: run
    totals, the sub-reports under ``shards`` and every shard's timeline
    rows (tagged ``shard``)."""
    rows = [dict(row, shard=r["shard"]) for r in reports
            for row in r.pop("timeline")]
    result.obs_report = {
        "name": spec.name,
        "horizon_ms": spec.duration_ms,
        "window_ms": reports[0]["window_ms"],
        "windows": max(r["windows"] for r in reports),
        "events": result.events,
        "wall_s": round(result.wall_s, 6),
        "n_shards": result.n_shards,
        "trace_counts": dict(result.trace_counts),
        "shards": reports,
        "timeline": sorted(rows, key=lambda r: (r["w"], r["shard"])),
    }


def _grant(lb: float, lookahead: float, horizon: float) -> float:
    """The window end every shard runs to in a round.

    Nothing sent at ``t >= lb`` arrives before ``t + lookahead``, so no
    import can land inside ``[lb, grant)``.
    """
    return min(horizon, lb + lookahead)


def run_sharded(spec: ExperimentSpec, shards: int,
                record: bool = False, obs: bool = False,
                spans: Union[bool, float] = False) -> ShardRunResult:
    """Run one spec on ``shards`` worker processes.

    ``record=True`` captures every shard's keyed trace stream and
    merges them into :attr:`ShardRunResult.merged_lines` — the stream
    that must be byte-identical to a sequential
    :func:`~repro.validation.record.record_spec` run, and from which
    :meth:`ShardRunResult.run_result` harvests the run's
    :class:`~repro.experiments.results.RunResult`.

    ``obs=True`` attaches one out-of-band
    :class:`~repro.obs.session.ObsSession` per worker and assembles
    the per-shard reports into :attr:`ShardRunResult.obs_report`, the
    run's ``obs`` section (timeline rows tagged with ``shard``).
    Because observability never touches the trace stream, ``record``
    and ``obs`` compose freely.

    ``spans=True`` attaches one out-of-band
    :class:`~repro.obs.spans.SpanCollector` per worker; each shard
    collects only the events its gate admits, and the coordinator
    merges the streams into :attr:`ShardRunResult.span_events` in a
    deterministic order (time, event code, fields), so the merged
    stream assembles identically to a sequential collection.  A float
    in (0, 1] instead of ``True`` is the collectors' sampling rate.

    A worker that dies raises ``RuntimeError`` at once; one that stays
    alive but silent for :data:`WORKER_SILENCE_DEADLINE_S` raises it
    with every shard's last reported position.  Either way all workers
    are killed and reaped before the exception propagates.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if spans is True:
        spans = 1.0
    if shards == 1:
        return _sequential_result(spec, record, obs=obs, spans=spans)

    import multiprocessing
    plan = partition_spec(spec, shards)
    mp = multiprocessing.get_context()
    conns = []
    procs = []
    for shard_id in range(shards):
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_worker_main,
            args=(child_conn, spec.to_dict(), plan, shard_id, record, obs,
                  spans),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    horizon = spec.duration_ms
    result = ShardRunResult(n_shards=shards, lookahead=0.0, horizon=horizon)
    entries_per_shard: List[Optional[list]] = [None] * shards
    obs_per_shard: List[Optional[Dict[str, Any]]] = [None] * shards
    spans_per_shard: List[Optional[list]] = [None] * shards
    fronts = [0.0] * shards
    earliest: List[Optional[Tuple[float, int]]] = [None] * shards
    #: Exports routed to each shard, delivered with its next reply.
    inbound: List[List[Tuple]] = [[] for _ in range(shards)]

    def recv(i: int) -> Dict[str, Any]:
        if not conns[i].poll(WORKER_SILENCE_DEADLINE_S):
            where = "; ".join(f"shard {j}: front={fronts[j]} "
                              f"earliest={earliest[j]}"
                              for j in range(shards))
            raise RuntimeError(
                f"shard {i} worker is alive but sent nothing for "
                f"{WORKER_SILENCE_DEADLINE_S}s ({where})")
        try:
            msg = conns[i].recv()
        except EOFError:
            raise RuntimeError(f"shard {i} worker died unexpectedly")
        if msg["t"] == "error":
            raise RuntimeError(f"shard {i} worker failed:\n{msg['tb']}")
        return msg

    try:
        readies = [recv(i) for i in range(shards)]
        lookaheads = {r["lookahead"] for r in readies}
        if len(lookaheads) != 1:  # pragma: no cover - invariant
            raise RuntimeError(
                f"workers disagree on the lookahead: {sorted(lookaheads)}")
        result.lookahead = lookahead = lookaheads.pop()
        result.build_s = max(r["build_s"] for r in readies)

        wall_start = time.perf_counter()
        for conn in conns:
            conn.send({"t": "go"})

        def collect_done(i: int, m: Dict[str, Any]) -> None:
            result.shard_events.append(m["events"])
            result.shard_walls.append(m["wall_s"])
            result.windows_per_shard.append(m["windows"])
            result.stalled_windows.append(m["stalls"])
            result.barrier_wait_s.append(m["barrier_wait_s"])
            result.events += m["events"]
            result.exported += m["exported"]
            result.peak_heap = max(result.peak_heap, m["peak_heap"])
            result.compactions += m["compactions"]
            for key, n in m["totals"].items():
                have = result.totals.get(key, 0)
                result.totals[key] = max(have, n) if key == "peak_buffer" \
                    else have + n
            result.windows = max(result.windows, m["windows"])
            result.probe_syncs = max(result.probe_syncs, m["probes"])
            for kind, n in m["trace_counts"].items():
                result.trace_counts[kind] = \
                    result.trace_counts.get(kind, 0) + n
            entries_per_shard[i] = m["entries"]
            obs_per_shard[i] = m["obs"]
            spans_per_shard[i] = m["spans"]

        while True:
            msgs = [recv(i) for i in range(shards)]
            kinds = {m["t"] for m in msgs}
            if kinds == {"done"}:
                for i, m in enumerate(msgs):
                    collect_done(i, m)
                break
            # Same probes, same grants: a round is never mixed.
            if len(kinds) != 1:  # pragma: no cover - invariant
                raise RuntimeError(f"shards desynchronized: {sorted(kinds)}")
            for i, m in enumerate(msgs):
                fronts[i], earliest[i] = m["front"], m["earliest"]
                for dest, batch in m["exports"].items():
                    inbound[dest].extend(batch)
            if kinds == {"probe"}:
                idents = {m["probe"] for m in msgs}
                if len(idents) != 1:  # pragma: no cover - invariant
                    raise RuntimeError(
                        f"probe desync across shards: {idents}")
                reply = {"probe_data": _merge_probe_data(
                    idents.pop()[0], [m["data"] for m in msgs])}
            elif min(fronts) >= horizon:
                reply = {"tail": True}
            else:
                lb = min([e[0] for e in earliest if e is not None]
                         + [item[0] for batch in inbound for item in batch],
                         default=_INF)
                reply = {"grant": _grant(lb, lookahead, horizon)}
            for i, conn in enumerate(conns):
                conn.send(dict(reply, imports=inbound[i]))
                inbound[i] = []

        result.wall_s = time.perf_counter() - wall_start

        if record:
            result.merged_lines = merge_streams(
                [e for e in entries_per_shard if e is not None])
        if obs:
            _assemble_obs(result, spec, obs_per_shard)
        if spans:
            # Stitch per-shard span streams across the export
            # boundaries: assembly is order-independent, but a stable
            # merged order keeps streamed artifacts byte-comparable.
            merged_spans = [tuple(ev)
                            for events in spans_per_shard if events
                            for ev in events]
            merged_spans.sort(
                key=lambda ev: (ev[1], ev[0],
                                tuple(str(x) for x in ev[2:])))
            result.span_events = merged_spans
    finally:
        # SIGKILL, not SIGTERM: a stopped worker never sees a SIGTERM.
        for proc in procs:
            if proc.is_alive():
                proc.kill()
        for proc in procs:
            proc.join(timeout=5.0)
        for conn in conns:
            conn.close()
    return result


def record_sharded(spec: ExperimentSpec, shards: int,
                   stream_path: Optional[str] = None) -> List[str]:
    """Canonical merged JSONL lines of a ``shards``-way run.

    With ``stream_path`` the merged stream is also written to a
    (``.gz``-compressed, byte-stable) JSONL file via
    :func:`repro.sim.trace.write_trace_lines` — the sharded face of the
    streaming trace sink.
    """
    result = run_sharded(spec, shards, record=True)
    lines = result.merged_lines or []
    if stream_path is not None:
        write_trace_lines(stream_path, lines)
    return lines
