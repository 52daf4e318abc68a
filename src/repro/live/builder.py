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

from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Optional

from repro.experiments.results import RunResult
from repro.experiments.runner import Harvest, observed_scenario
from repro.experiments.spec import ExperimentSpec
from repro.live.fabric import QueueFabric, UdpFabric
from repro.live.loadgen import LoadGenerator
from repro.live.runtime import LiveRuntime
from repro.workloads.scenarios import Scenario

FABRICS = {"queue": QueueFabric, "udp": UdpFabric}

#: The callback each fabric queues a message under while it is in
#: flight: one still on the heap at the horizon was neither dropped nor
#: delivered, and is not lost.
_IN_FLIGHT = {"queue": "_arrive", "udp": "_transmit"}


@dataclass
class LiveRun:
    """One built live service: runtime + scenario + instrumentation."""

    runtime: LiveRuntime
    scenario: Scenario
    fabric_kind: str
    loadgen: LoadGenerator
    #: The same standard harvest a sim run carries.
    harvest: Harvest
    #: The open :func:`observed_scenario` seam; :meth:`run` closes it.
    observed: ExitStack
    #: Built with ``obs=True``: :attr:`result` carries an ``obs`` section.
    obs: bool = False

    def run(self) -> None:
        """Execute the scenario for its spec duration, in wall time."""
        with self.observed:
            self.scenario.run()

    def violations(self) -> list:
        """Monitor violations (empty when no suite was attached)."""
        suite = self.harvest.suite
        return [] if suite is None else suite.all_violations()

    @cached_property
    def result(self) -> RunResult:
        """The finished run's :class:`RunResult`, the harvest's with what
        only a wall-clock run has as its ``live`` section: fabric, load
        generator, loop lag, and the wire.  Its ``unaccounted`` is what
        was sent and neither dropped nor delivered; ``in_flight`` the
        part of it still on the heap at the horizon and ``lost`` the
        rest (datagrams the kernel dropped or still held; 0 on the
        queue fabric); ``foreign`` counts datagrams from sockets the
        fabric did not bind, dropped unread.

        A run built with ``obs=True`` also has an ``obs`` section: the
        live trace's per-kind counts (the loop's lag is already under
        ``live.lag``)."""
        fabric = self.scenario.net.fabric
        sent, dropped, delivered = (fabric.messages_sent,
                                    fabric.messages_dropped,
                                    fabric.messages_delivered)
        unaccounted = sent - dropped - delivered
        in_flight = self.runtime.queued(
            getattr(fabric, _IN_FLIGHT[self.fabric_kind]))
        return replace(self.harvest.result, obs=self._obs(), live={
            "fabric": self.fabric_kind,
            "loadgen": self.loadgen.report(),
            "lag": self.runtime.lag_report(),
            "wire": {"sent": sent, "dropped": dropped,
                     "delivered": delivered, "unaccounted": unaccounted,
                     "in_flight": in_flight,
                     "lost": unaccounted - in_flight,
                     "foreign": fabric.foreign},
        })

    def report(self) -> Dict[str, object]:
        """:attr:`result` as a dict, plus ``monitor_violations``: an
        alias of :meth:`violations` that perfbench's live check reads
        (not part of the run artifact; goes when perfbench stops
        reading it)."""
        return {**self.result.to_dict(),
                "monitor_violations": self.violations()}

    def _obs(self) -> Optional[Dict[str, object]]:
        if not self.obs:
            return None
        spec = self.harvest.point.spec
        return {
            "name": spec.name,
            "horizon_ms": spec.duration_ms,
            "events": self.runtime.events_processed,
            "trace_counts": dict(self.runtime.trace.counts),
            "timeline": [],
        }


class NetworkBuilder:
    """Instantiate the protocol tiers from a spec, live.

    Parameters
    ----------
    spec:
        Any :class:`ExperimentSpec` with ``system == "ringnet"``.
    fabric:
        ``"queue"`` (the sim fabric, in process) or ``"udp"`` (loopback
        sockets).  UDP requires a static population — no open-world
        arrivals.
    time_scale:
        Wall seconds per logical second (see :class:`LiveRuntime`).
    monitors:
        Attach the standard :mod:`repro.validation` suite to the live
        trace stream (before construction, so build-time joins are
        observed).
    obs:
        The run's result carries an ``obs`` section: the live trace's
        per-kind counts.
    """

    def __init__(self, spec: ExperimentSpec, fabric: str = "queue",
                 time_scale: float = 1.0, monitors: bool = False,
                 obs: bool = False):
        if fabric not in FABRICS:
            raise ValueError(
                f"unknown fabric {fabric!r}; choose from {tuple(FABRICS)}")
        if spec.system != "ringnet":
            raise ValueError(
                f"the live backend runs the ringnet system, "
                f"not {spec.system!r}")
        if fabric == "udp" and spec.openworld.enabled:
            # Its sockets bind at start; an arrival cannot get one later.
            raise ValueError(
                "the udp fabric needs a static population: "
                f"{spec.name!r} has open-world arrivals (the queue fabric "
                "takes them)")
        self.spec = spec
        self.fabric_kind = fabric
        self.time_scale = time_scale
        self.monitors = monitors
        self.obs = obs

    def build(self, *observers) -> LiveRun:
        """Construct runtime, fabric, tiers, workload, and monitors.

        ``observers`` ride through :func:`observed_scenario` next to the
        harvest: attached before construction, finished and detached
        when :meth:`LiveRun.run` returns.
        """
        spec = self.spec
        runtime = LiveRuntime(seed=spec.seed, time_scale=self.time_scale)
        harvest = Harvest(spec, self.monitors)
        observed = ExitStack()
        scenario = observed.enter_context(observed_scenario(
            spec, harvest, *observers, sim=runtime,
            fabric=FABRICS[self.fabric_kind](runtime)))
        return LiveRun(runtime=runtime, scenario=scenario,
                       fabric_kind=self.fabric_kind,
                       loadgen=LoadGenerator(scenario, runtime),
                       harvest=harvest, observed=observed, obs=self.obs)
