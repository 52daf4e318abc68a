"""Build scenarios from specs and execute sweeps, serially or in parallel.

* :func:`build_scenario` — turn an :class:`ExperimentSpec` into a
  runnable :class:`~repro.workloads.scenarios.Scenario` (any system:
  the RingNet protocol, the unordered flooding baseline, or the one-big
  single-ring baseline of [16]).
* :func:`observed_scenario` — the one build-and-attach seam: observers
  subscribe to the runtime's trace, *then* the scenario is built, on
  whichever backend's runtime the caller hands in.
* :class:`Harvest` — the standard observer set (collectors, optional
  monitor suite, handoff/tombstone counters) and the :class:`RunResult`
  it distills; every backend's summary comes from here.
* :func:`run_point` — seam + harvest for one sequential run.
* :func:`run_sweep` — execute a list of :class:`RunPoint`\\ s; ``jobs > 1``
  fans runs out to ``multiprocessing`` worker processes (each run is an
  independent single-threaded simulation, so this is embarrassingly
  parallel), ``jobs == 1`` is the serial fallback for debugging.
  Results come back in submission order either way, and — because every
  run's randomness is fully determined by its spec's seed — serial and
  parallel execution produce identical results.

Workers receive plain dicts (via ``RunPoint.to_dict``) and return plain
dicts, so the pool works under both fork and spawn start methods.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from functools import cached_property
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Union)

from repro.analysis.bounds import bounds_for
from repro.experiments.grid import RunPoint
from repro.faults.driver import FaultDriver
from repro.experiments.results import RunResult
from repro.experiments.spec import ExperimentSpec
from repro.baselines.single_ring import SingleRingMulticast
from repro.baselines.unordered import UnorderedRingNet
from repro.core.config import ProtocolConfig
from repro.core.protocol import RingNet
from repro.core.source import FlowProfile
from repro.metrics.collectors import LatencyCollector, ThroughputCollector
from repro.metrics.order_checker import OrderChecker
from repro.mobility.cells import CellGrid
from repro.mobility.handoff import HandoffDriver
from repro.mobility.models import DirectionalWalk, RandomWalk
from repro.net.fabric import Fabric
from repro.net.link import WIRED, WIRELESS
from repro.obs.critpath import critpath_summary
from repro.obs.session import ObsSession
from repro.obs.spans import SpanCollector, assemble, write_span_events
from repro.sim.engine import Simulator
from repro.topology.tiers import Tier
from repro.validation.monitor import MonitorSuite
from repro.validation import suite as validation_suite
from repro.workloads.churn import ChurnDriver
from repro.workloads.generators import RateCurve, weighted_sources
from repro.workloads.openworld import OpenWorldDriver
from repro.workloads.scenarios import Scenario


# ----------------------------------------------------------------------
# Spec -> Scenario
# ----------------------------------------------------------------------
def _bounded_cfg(cfg: ProtocolConfig,
                 spec: ExperimentSpec) -> ProtocolConfig:
    """Pin ``mq_retention`` to the Theorem 5.1 MQ sufficiency bound.

    The theorem says s·λ·T_order messages of retained history suffice;
    keeping more only serves handoff catch-up beyond the bound, so the
    memory-bounded rungs spill everything past it.  Heterogeneous rate
    lists use the max per-source rate, keeping the bound conservative.
    """
    shape = spec.hierarchy
    rates = spec.workload.source_rates
    bounds = bounds_for(
        cfg,
        ring_size=shape.n_br,
        n_sources=len(rates),
        rate_per_sec=max(rates),
        wired=WIRED,
        wireless=WIRELESS,
        # BR→AG, AG→AP, AP→MH = 3 hops below the top ring; each level
        # of AG rings past the first adds one more between BR and AP.
        tree_depth=shape.depth + 2,
    )
    return replace(cfg,
                   mq_retention=max(1, math.ceil(bounds.mq_bound_msgs)))


def _build_net(sim: Simulator, spec: ExperimentSpec,
               fabric: Optional[Fabric] = None):
    shape = spec.hierarchy
    cfg = spec.protocol_config()
    if fabric is not None and spec.system != "ringnet":
        raise ValueError(
            "a custom fabric (live backend) requires the ringnet system, "
            f"not {spec.system!r}")
    if spec.bound_retention:
        if spec.system != "ringnet":
            raise ValueError(
                "bound_retention applies Theorem 5.1 to the ringnet "
                f"top ring; it has no meaning for {spec.system!r}")
        cfg = _bounded_cfg(cfg, spec)
    if spec.system == "single_ring":
        return SingleRingMulticast.build_ring(
            sim, n_bs=shape.n_ap, mhs_per_bs=shape.mhs_per_ap, cfg=cfg)
    if spec.system == "unordered":
        if shape.depth > 1:
            raise ValueError("the unordered baseline only supports depth=1")
        # The baseline has no ordering machinery, so only the shared
        # reliability knobs apply; anything else would be silently
        # ignored — reject instead so comparisons stay apples-to-apples.
        unsupported = sorted(set(spec.protocol) - {"rto", "max_retries"})
        if unsupported:
            raise ValueError(
                f"protocol overrides {unsupported} have no effect on the "
                f"unordered baseline (supported: rto, max_retries)")
        return UnorderedRingNet.build(sim, shape, rto=cfg.rto,
                                      max_retries=cfg.max_retries)
    return RingNet.build(sim, shape, cfg=cfg, fabric=fabric)


def _mobility_model(spec: ExperimentSpec):
    m = spec.mobility
    if m.model == "directional":
        return DirectionalWalk(mean_dwell_ms=m.mean_dwell_ms,
                               persistence=m.persistence)
    return RandomWalk(mean_dwell_ms=m.mean_dwell_ms, stay_prob=m.stay_prob)


def build_scenario(spec: ExperimentSpec,
                   sim: Optional[Simulator] = None,
                   fabric: Optional[Fabric] = None) -> Scenario:
    """Materialize a spec: runtime, protocol, workload, dynamics.

    Initial MH joins are emitted while the network is built, so a run
    that is watched goes through :func:`observed_scenario`, which
    subscribes its observers to ``sim.trace`` and then calls this.
    ``sim`` (seeded with ``spec.seed``) may be any
    :class:`~repro.runtime.api.Runtime`; the live backend passes a
    :class:`~repro.live.runtime.LiveRuntime` together with a queue- or
    socket-backed ``fabric`` (ringnet only).
    """
    if sim is None:
        sim = Simulator(seed=spec.seed)
    elif sim.seed != spec.seed:
        raise ValueError(
            f"pre-built simulator seed {sim.seed} != spec seed {spec.seed}")
    net = _build_net(sim, spec, fabric=fabric)

    wl = spec.workload
    extra: Dict[str, Any] = {}
    if wl.curve is not None:
        rate_fn = RateCurve.from_dict(wl.curve).as_fn()
        if rate_fn is not None:
            extra["rate_fn"] = rate_fn
    if wl.flows is not None and wl.pattern == "flows":
        extra["flows"] = FlowProfile(**wl.flows)
    if spec.system != "ringnet" and (extra or wl.pattern == "flows"):
        raise ValueError(
            "time-varying curves and the flows pattern require the "
            f"ringnet system, not {spec.system!r}")
    fleet = weighted_sources(net, wl.source_rates, pattern=wl.pattern,
                             **extra)

    if spec.hierarchy.idle_per_ap > 0:
        if spec.system != "ringnet":
            raise ValueError(
                f"idle_per_ap requires the ringnet system, "
                f"not {spec.system!r}")
        for ap in net.hierarchy.nodes_of_tier(Tier.AP):
            net.register_catchment(ap, spec.hierarchy.idle_per_ap)

    grid = mobility = None
    if spec.mobility.enabled:
        if spec.system != "ringnet":
            raise ValueError(
                f"mobility requires the ringnet system, not {spec.system!r}")
        aps = net.hierarchy.nodes_of_tier(Tier.AP)
        if not aps:
            raise ValueError("mobility needs at least one AP in the shape")
        grid = CellGrid.square_for(aps)
        mobility = HandoffDriver(net, grid, _mobility_model(spec))

    churn = None
    if spec.churn.enabled:
        aps = net.hierarchy.nodes_of_tier(Tier.AP) or \
            net.hierarchy.top_ring.members
        churn = ChurnDriver(net, aps,
                            mean_interval_ms=spec.churn.mean_interval_ms,
                            min_members=spec.churn.min_members)

    openworld = None
    if spec.openworld.enabled:
        if spec.system != "ringnet":
            raise ValueError(
                f"openworld requires the ringnet system, "
                f"not {spec.system!r}")
        ow = spec.openworld
        openworld = OpenWorldDriver(
            net, net.hierarchy.nodes_of_tier(Tier.AP),
            arrivals_per_sec=ow.arrivals_per_sec,
            mean_session_ms=ow.mean_session_ms,
            alpha=ow.alpha,
            max_session_ms=ow.max_session_ms,
            mobility=mobility)

    faults = None
    if spec.faults:
        faults = FaultDriver(sim, net, spec.faults)
        faults.schedule()

    return Scenario(sim=sim, net=net, fleet=fleet, grid=grid,
                    mobility=mobility, churn=churn, openworld=openworld,
                    faults=faults, duration_ms=spec.duration_ms,
                    stagger_ms=spec.workload.stagger_ms)


# ----------------------------------------------------------------------
# The build-and-attach seam
# ----------------------------------------------------------------------
@contextmanager
def observed_scenario(spec: ExperimentSpec, *observers,
                      sim: Optional[Simulator] = None,
                      fabric: Optional[Fabric] = None) -> Iterator[Scenario]:
    """Build ``spec`` with ``observers`` attached **before** construction.

    The one place that knows the load-bearing ordering rule: initial MH
    joins are emitted while the network is built, so whatever watches
    the trace must subscribe before :func:`build_scenario` or silently
    miss them.  An observer is anything with ``attach(trace)`` /
    ``detach()`` (a :class:`Harvest`, a monitor or suite, a trace
    recorder or streaming sink, a span collector) and, optionally,
    ``finish(net=, end_time=)``, called when the ``with`` body — in
    which the caller runs the scenario — leaves cleanly.  Observers
    always detach on exit; a ``None`` among them is skipped, so optional
    observers pass straight through.

    ``sim`` / ``fabric`` are :func:`build_scenario`'s: a caller that
    needs a particular runtime (a counting-off trace bus, a shard-gated
    engine, a live runtime with its fabric) constructs it and passes it
    in; the default is a fresh :class:`Simulator` seeded from the spec.
    """
    if sim is None:
        sim = Simulator(seed=spec.seed)
    observers = [obs for obs in observers if obs is not None]
    for obs in observers:
        obs.attach(sim.trace)
    try:
        scenario = build_scenario(spec, sim=sim, fabric=fabric)
        yield scenario
        for obs in observers:
            finish = getattr(obs, "finish", None)
            if finish is not None:
                finish(net=scenario.net, end_time=sim.now)
    finally:
        for obs in observers:
            obs.detach()


# ----------------------------------------------------------------------
# The standard harvest
# ----------------------------------------------------------------------
#: What ``check=`` takes: ``True`` (the spec's standard suite), a ready
#: suite, or a per-spec suite factory (the fuzz campaign's, with its own
#: windows) — module-level, so it pickles to :func:`run_sweep`'s workers.
Check = Union[bool, MonitorSuite, Callable[[ExperimentSpec], MonitorSuite]]


def network_totals(net, is_local: Optional[Callable[[str], bool]] = None
                   ) -> Dict[str, int]:
    """What a run's summary reads off its network at the end, not off
    the trace: ``sent``, ``delivered``, ``retransmissions``, ``members``
    and ``peak_buffer`` (max per-NE WQ+MQ occupancy).

    ``is_local`` (a shard worker's ownership test) counts only the nodes
    it admits, so a sharded run's totals are its workers' summed —
    ``peak_buffer`` by max.
    """
    mine = is_local or (lambda node_id: True)
    mhs = [mh for mid, mh in net.mobile_hosts.items() if mine(mid)]
    sources = [src for sid, src in net.sources.items() if mine(sid)]
    nodes = [ne for nid, ne in net.nes.items() if mine(nid)] + mhs + sources
    reports = net.buffer_reports() if hasattr(net, "buffer_reports") else ()
    return {
        "sent": sum(src.sent for src in sources),
        "delivered": sum(mh.delivered_count for mh in mhs),
        "retransmissions": sum(node.chan.stats.retransmitted for node in nodes
                               if getattr(node, "chan", None) is not None),
        "members": sum(1 for mh in mhs if mh.is_member),
        "peak_buffer": max((r["wq_peak"] + r["mq_peak"] for r in reports
                            if mine(r["node"])), default=0),
    }


class Harvest:
    """The standard observer set, distilled into a :class:`RunResult`.

    Itself an observer (hand it to :func:`observed_scenario`): attaching
    subscribes the latency and throughput collectors, the handoff and
    tombstone counters, and either the monitor suite (a checked run) or
    a bare :class:`OrderChecker`; ``finish`` runs the suite's end-of-run
    checks, after which :attr:`result` is the run's summary.  All of it
    only observes, so a checked run's metrics are byte-identical to an
    unchecked run's.
    """

    def __init__(self, point: Union[RunPoint, ExperimentSpec],
                 check: Check = False):
        if isinstance(point, ExperimentSpec):
            point = RunPoint(spec=point, params={}, seed=point.seed)
        self.point = point
        if check is True:
            # Looked up per call, so a test can swap in a poisoned one.
            check = validation_suite.suite_for_spec
        self.suite = check(point.spec) if callable(check) else check or None
        self._wall_start = time.perf_counter()

    def attach(self, trace) -> "Harvest":
        spec = self.point.spec
        if self.suite is not None:
            self.suite.attach(trace)
            # The suite already carries a total-order checker for
            # ordered systems; reuse it, don't attach a second one.
            self._order = next((m for m in self.suite
                                if m.name == "total_order"), None)
        else:
            self._order = OrderChecker(trace) if spec.system != "unordered" \
                else None
        self._latency = LatencyCollector(trace, warmup=spec.warmup_ms)
        self._throughput = ThroughputCollector(trace)
        self._counts = counts = {"mh.handoff": 0, "mh.tombstone": 0}
        for topic in counts:
            trace.subscribe(
                topic,
                lambda rec, t=topic: counts.__setitem__(t, counts[t] + 1))
        return self

    def detach(self) -> None:
        # The collectors have no detach of their own and die with the bus.
        if self.suite is not None:
            self.suite.detach()

    def finish(self, net, end_time: Optional[float] = None) -> None:
        if self.suite is not None:
            self.suite.finish(net=net, end_time=end_time)
        self._net = net
        self._wall_s = time.perf_counter() - self._wall_start

    @cached_property
    def totals(self) -> Dict[str, int]:
        """:func:`network_totals` of the finished run's net.  A sharded
        run's net is split over its workers, so
        :meth:`~repro.shard.runtime.ShardRunResult.run_result` sets
        their summed totals here instead."""
        return network_totals(self._net)

    @cached_property
    def result(self) -> RunResult:
        """The finished run's summary, distilled on first read — not
        inside ``finish``, which a live run's timed teardown calls."""
        point, suite = self.point, self.suite
        spec, order, throughput = point.spec, self._order, self._throughput
        t0, t1 = spec.warmup_ms, spec.duration_ms
        return RunResult(
            run_id=point.run_id,
            name=spec.name,
            system=spec.system,
            params=dict(point.params),
            point_index=point.point_index,
            replication=point.replication,
            seed=spec.seed,
            duration_ms=spec.duration_ms,
            warmup_ms=spec.warmup_ms,
            goodput=throughput.goodput(t0, t1),
            sent_rate=throughput.sent_rate(t0, t1),
            min_goodput=throughput.min_goodput(t0, t1),
            latency=self._latency.summary(),
            order_checked=order is not None,
            order_violations=order.violation_count if order is not None
            else 0,
            handoffs=self._counts["mh.handoff"],
            tombstones=self._counts["mh.tombstone"],
            wall_time_s=self._wall_s,
            violations=suite.all_violations() if suite is not None else None,
            **self.totals,
        )


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_point(point: Union[RunPoint, ExperimentSpec], *observers,
              check: Check = False,
              obs: bool = False,
              spans_dir: Optional[str] = None) -> RunResult:
    """Execute one run and distill its :class:`RunResult`.

    Accepts either a grid :class:`RunPoint` or a bare spec (treated as a
    single point, replication 0).  ``observers`` ride through
    :func:`observed_scenario` next to the harvest — a trace recorder, an
    :class:`~repro.obs.session.ObsSession`, a span collector; all pure
    observers, so every metric stays byte-identical to an unwatched run.
    ``check=True`` adds the full :mod:`repro.validation` monitor suite
    (a :data:`Check` factory: the suite it makes for this spec) and
    fills ``RunResult.violations``.

    ``obs`` / ``spans_dir`` are two observers as switches, so a caller
    in another process (:func:`run_sweep`'s workers) can ask for them:
    ``obs=True`` attaches an :class:`ObsSession` whose report comes back
    as the result's ``obs`` section; a :class:`SpanCollector` writes
    ``SPANS_<run_id>.jsonl.gz`` + ``CRITPATH_<run_id>.json`` to
    ``spans_dir``.
    """
    harvest = Harvest(point, check)
    spec, run_id = harvest.point.spec, harvest.point.run_id
    session = ObsSession(horizon_ms=spec.duration_ms, name=run_id) \
        if obs else None
    collector = SpanCollector() if spans_dir is not None else None
    with observed_scenario(spec, harvest, session, collector,
                           *observers) as scenario:
        scenario.run()
    if collector is not None:
        write_span_artifacts(spans_dir, run_id, collector.events)
    if session is not None:
        return replace(harvest.result, obs=session.report())
    return harvest.result


def write_span_artifacts(out_dir: str, name: str, events) -> Dict[str, str]:
    """Write ``SPANS_<name>.jsonl.gz`` + ``CRITPATH_<name>.json``; returns
    the paths."""
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"SPANS_{name}.jsonl.gz")
    write_span_events(spans, events)
    summary = critpath_summary(assemble(events))
    critpath = os.path.join(out_dir, f"CRITPATH_{name}.json")
    with open(critpath, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"spans": spans, "critpath": critpath}


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
def _run_point_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry: dict in, dict out (picklable under fork and spawn)."""
    check = payload.pop("check", False)
    obs = payload.pop("obs", False)
    spans_dir = payload.pop("spans_dir", None)
    return run_point(RunPoint.from_dict(payload), check=check,
                     obs=obs, spans_dir=spans_dir).to_dict()


def resolve_jobs(jobs: int) -> int:
    """Effective sweep worker count: ``jobs`` clamped to the machine's
    ``os.cpu_count()``, so an oversubscribed request degrades to
    full-but-not-thrashing parallelism.  Raises ``ValueError`` for a
    non-positive request."""
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return min(jobs, max(1, os.cpu_count() or 1))


def run_sweep(
    points: Sequence[RunPoint],
    jobs: int = 1,
    progress: Optional[Callable[[int, int, RunResult], None]] = None,
    check: Check = False,
    obs: bool = False,
    spans_dir: Optional[str] = None,
) -> List[RunResult]:
    """Execute every point; returns results in submission order.

    ``jobs > 1`` uses a ``multiprocessing.Pool`` of that many worker
    processes.  ``progress`` (serial mode and parallel mode alike) is
    called as ``progress(i, total, result)`` as finished results are
    collected, in submission order.  ``check`` runs every point with a
    validation monitor suite attached (see :func:`run_point`);
    ``obs`` fills every result's ``obs`` section and ``spans_dir``
    receives per-run ``SPANS_*`` / ``CRITPATH_*`` span artifacts.
    The effective worker count is clamped to ``os.cpu_count()`` so an
    oversubscribed request degrades gracefully instead of thrashing.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(points) <= 1:
        results = []
        for i, point in enumerate(points):
            result = run_point(point, check=check, obs=obs,
                               spans_dir=spans_dir)
            results.append(result)
            if progress is not None:
                progress(i, len(points), result)
        return results

    payloads = [dict(p.to_dict(), check=check, obs=obs,
                     spans_dir=spans_dir)
                for p in points]
    import multiprocessing
    results = []
    with multiprocessing.Pool(processes=min(jobs, len(points))) as pool:
        # imap yields in submission order, whichever worker finished first.
        for index, raw in enumerate(pool.imap(_run_point_payload, payloads)):
            results.append(RunResult.from_dict(raw))
            if progress is not None:
                progress(index, len(points), results[-1])
    return results
