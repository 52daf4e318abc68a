"""The runnable end-to-end bundle.

A :class:`Scenario` bundles the runtime, the protocol instance, the
traffic fleet, and (optionally) mobility and churn — ready to ``run()``.
Scenarios are built from declarative
:class:`~repro.experiments.spec.ExperimentSpec` objects by
:func:`repro.experiments.runner.build_scenario`; the named ones live in
:mod:`repro.experiments.registry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.protocol import RingNet
from repro.mobility.cells import CellGrid
from repro.mobility.handoff import HandoffDriver
from repro.runtime.api import Runtime
from repro.workloads.churn import ChurnDriver
from repro.workloads.generators import SourceFleet
from repro.workloads.openworld import OpenWorldDriver


@dataclass
class Scenario:
    """A runnable bundle: runtime + protocol + workload + dynamics.

    ``sim`` is any :class:`~repro.runtime.api.Runtime` — the
    discrete-event engine for simulations, a
    :class:`~repro.live.runtime.LiveRuntime` for wall-clock runs; both
    expose the ``run(until=...)`` entry :meth:`run` drives.
    """

    sim: Runtime
    net: RingNet
    fleet: SourceFleet
    grid: Optional[CellGrid] = None
    mobility: Optional[HandoffDriver] = None
    churn: Optional[ChurnDriver] = None
    #: Session arrivals over the lazy catchment, when the spec enables
    #: the open-world workload.
    openworld: Optional[OpenWorldDriver] = None
    #: The scheduled :class:`~repro.faults.driver.FaultDriver` when the
    #: spec carries a fault plan (events are armed at build time).
    faults: Optional[object] = None
    duration_ms: float = 10_000.0
    stagger_ms: float = 3.0

    def start(self) -> None:
        """Arm everything without running the event loop.

        Split out of :meth:`run` so the sharded backend can start the
        scenario and then drive the engine through synchronized windows
        instead of one free-running :meth:`Simulator.run`.
        """
        self.net.start()
        self.fleet.start(stagger=self.stagger_ms)
        if self.mobility is not None:
            for mh_id, mh in self.net.mobile_hosts.items():
                if mh.ap is not None:
                    self.mobility.track(mh_id, mh.ap)
        if self.churn is not None:
            self.churn.start()
        if self.openworld is not None:
            self.openworld.start()

    def run(self, until: Optional[float] = None) -> None:
        """Start everything and run to ``until`` (or the duration)."""
        self.start()
        self.sim.run(until=until if until is not None else self.duration_ms)
