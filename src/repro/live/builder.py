"""Build a live network service from an :class:`ExperimentSpec`.

:class:`NetworkBuilder` is the config-driven entry point: hand it the
same declarative spec the sim runs (any registry scenario), pick a
fabric, and it instantiates the BR/AG/AP/MH tiers, the workload fleet,
mobility/churn/open-world drivers, and (optionally) the full
:mod:`repro.validation` monitor suite attached to the live trace
stream — then :meth:`NetworkBuilder.build` hands back a
:class:`LiveRun` ready to ``run()`` in wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.spec import ExperimentSpec
from repro.live.fabric import QueueFabric, UdpFabric
from repro.live.loadgen import LoadGenerator
from repro.live.runtime import LiveRuntime
from repro.metrics.collectors import LatencyCollector, ThroughputCollector
from repro.metrics.order_checker import OrderChecker
from repro.workloads.scenarios import Scenario

FABRICS = ("queue", "udp")


@dataclass
class LiveRun:
    """One built live service: runtime + scenario + instrumentation."""

    runtime: LiveRuntime
    scenario: Scenario
    fabric_kind: str
    loadgen: LoadGenerator
    latency: LatencyCollector
    throughput: ThroughputCollector
    order: Optional[OrderChecker] = None
    suite: Optional[object] = None  # MonitorSuite when monitors attached
    spec: Optional[ExperimentSpec] = None

    def run(self) -> None:
        """Execute the scenario for its spec duration, in wall time."""
        self.scenario.run()
        if self.suite is not None:
            self.suite.finish(net=self.scenario.net,
                              end_time=self.runtime.now)

    def violations(self) -> list:
        """Monitor violations (empty when no suite was attached)."""
        return [] if self.suite is None else self.suite.all_violations()

    def report(self) -> Dict[str, object]:
        """Machine-readable run summary (metrics + loop health)."""
        spec = self.spec
        t0 = spec.warmup_ms if spec is not None else 0.0
        t1 = spec.duration_ms if spec is not None else self.runtime.now
        net = self.scenario.net
        return {
            "backend": "live",
            "fabric": self.fabric_kind,
            "name": spec.name if spec is not None else "",
            "seed": self.runtime.seed,
            "duration_ms": t1,
            "sent": self.scenario.fleet.total_sent,
            "delivered": net.total_app_deliveries(),
            "goodput": self.throughput.goodput(t0, t1),
            "sent_rate": self.throughput.sent_rate(t0, t1),
            "latency": self.latency.summary(),
            "order_violations": (self.order.violation_count
                                 if self.order is not None else 0),
            "monitor_violations": self.violations(),
            "loadgen": self.loadgen.report(),
            "lag": self.runtime.lag_report(),
        }

    def obs_report(self) -> Dict[str, object]:
        """``OBS_*``-style run report readable by ``python -m repro.obs``.

        The live loop's lag/drift accounting becomes registry gauges
        (``live.max_lag_ms``, ``live.mean_lag_ms``, ...) next to any
        counters protocol code accumulated through ``runtime.obs``, so
        ``repro.obs summarize`` works on live-run telemetry the same
        way it does on sim runs.
        """
        from repro.obs.registry import MetricsRegistry  # lazy: optional
        from repro.obs.session import OBS_SCHEMA

        reg = self.runtime.obs
        if reg is None:
            reg = MetricsRegistry()
        lag = self.runtime.lag_report()
        reg.set_gauge("live.max_lag_ms", lag["max_lag_ms"])
        reg.set_gauge("live.mean_lag_ms", lag["mean_lag_ms"])
        reg.set_gauge("live.time_scale", lag["time_scale"])
        reg.set_gauge("live.events", lag["events"])
        reg.set_gauge("live.yields", lag["yields"])
        spec = self.spec
        return {
            "schema": OBS_SCHEMA,
            "name": spec.name if spec is not None else "live",
            "backend": "live",
            "fabric": self.fabric_kind,
            "horizon_ms": (spec.duration_ms if spec is not None
                           else self.runtime.now),
            "window_ms": 0.0,
            "windows": 0,
            "events": self.runtime.events_processed,
            "registry": reg.snapshot(),
        }


class NetworkBuilder:
    """Instantiate the protocol tiers from a spec, live.

    Parameters
    ----------
    spec:
        Any :class:`ExperimentSpec` with ``system == "ringnet"``.
    fabric:
        ``"queue"`` (in-process asyncio queues) or ``"udp"`` (loopback
        sockets).  UDP requires a static population — no open-world
        arrivals.
    time_scale:
        Wall seconds per logical second (see :class:`LiveRuntime`).
    monitors:
        Attach the standard :mod:`repro.validation` suite to the live
        trace stream (before construction, so build-time joins are
        observed).
    """

    def __init__(self, spec: ExperimentSpec, fabric: str = "queue",
                 time_scale: float = 1.0, monitors: bool = False):
        if fabric not in FABRICS:
            raise ValueError(
                f"unknown fabric {fabric!r}; choose from {FABRICS}")
        if spec.system != "ringnet":
            raise ValueError(
                f"the live backend runs the ringnet system, "
                f"not {spec.system!r}")
        self.spec = spec
        self.fabric_kind = fabric
        self.time_scale = time_scale
        self.monitors = monitors

    def build(self) -> LiveRun:
        """Construct runtime, fabric, tiers, workload, and monitors."""
        # Lazy: runner imports a wide slice of the repo.
        from repro.experiments.runner import build_scenario
        from repro.validation.suite import standard_suite

        spec = self.spec
        runtime = LiveRuntime(seed=spec.seed, time_scale=self.time_scale)
        # Give the live loop a metrics registry up front: protocol code
        # reaches it through ``sim.obs`` exactly as under an ObsSession,
        # and obs_report() folds the lag gauges in after the run.
        from repro.obs.registry import MetricsRegistry  # lazy: optional
        runtime.obs = MetricsRegistry()
        suite = None
        if self.monitors:
            suite = standard_suite(spec.system)
            suite.attach(runtime.trace)
            # The suite already carries the total-order checker; reuse
            # it rather than double-subscribing a second one.
            order = next((m for m in suite if m.name == "total_order"),
                         None)
        else:
            order = OrderChecker(runtime.trace)
        # Collectors subscribe before construction too, mirroring
        # observed_scenario's ordering rule.
        latency = LatencyCollector(runtime.trace, warmup=spec.warmup_ms)
        throughput = ThroughputCollector(runtime.trace)
        if self.fabric_kind == "udp":
            fabric = UdpFabric(runtime)
        else:
            fabric = QueueFabric(runtime)
        scenario = build_scenario(spec, sim=runtime, fabric=fabric)
        return LiveRun(runtime=runtime, scenario=scenario,
                       fabric_kind=self.fabric_kind,
                       loadgen=LoadGenerator(scenario, runtime),
                       latency=latency, throughput=throughput,
                       order=order, suite=suite, spec=spec)
