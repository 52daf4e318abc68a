"""Assemble monitor suites.

:func:`standard_suite` picks the monitors that apply to a system
(``ringnet`` / ``single_ring`` get the full family plus the total-order
checker; ``unordered`` intentionally skips order- and token-dependent
monitors).

A suite is an observer: a checked run is
``run_point(spec, check=True)``, or — with a suite of the caller's own
— a :class:`~repro.experiments.runner.Harvest` handed to
:func:`~repro.experiments.runner.observed_scenario`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.metrics.order_checker import OrderChecker
from repro.validation.monitor import Monitor, MonitorSuite
from repro.validation.monitors import (
    DEFAULT_RECOVERY_WINDOW_MS,
    BoundsMonitor,
    HandoffMonitor,
    MembershipMonitor,
    RecoveryMonitor,
    TokenMonitor,
)

#: Systems whose delivery stream carries true global sequence numbers.
ORDERED_SYSTEMS = ("ringnet", "single_ring")


def standard_suite(
    system: str = "ringnet",
    *,
    liveness_window_ms: Optional[float] = None,
    recovery_window_ms: float = DEFAULT_RECOVERY_WINDOW_MS,
    per_peer_limit: Optional[int] = None,
) -> MonitorSuite:
    """The monitor set appropriate for ``system``."""
    monitors: List[Monitor] = []
    ordered = system in ORDERED_SYSTEMS
    if ordered:
        monitors.append(TokenMonitor(liveness_window_ms=liveness_window_ms))
        monitors.append(HandoffMonitor())
        monitors.append(OrderChecker())
    monitors.append(MembershipMonitor())
    monitors.append(BoundsMonitor(per_peer_limit=per_peer_limit))
    monitors.append(RecoveryMonitor(recovery_window_ms=recovery_window_ms))
    return MonitorSuite(monitors)


def suite_for_spec(spec) -> MonitorSuite:
    """The :func:`standard_suite` for a spec's system.

    The token liveness window derives itself from the net at finish
    time.
    """
    return standard_suite(spec.system)
