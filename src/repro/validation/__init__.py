"""Machine-checked protocol conformance.

The paper's claims — total order, reliability across handoffs,
token-based recovery — become executable invariants here:

* :mod:`repro.validation.monitor` — the :class:`Monitor` contract and
  :class:`MonitorSuite` bundling (violation accumulation, scoped trace
  subscriptions, end-of-run state checks).
* :mod:`repro.validation.monitors` — the invariant family: token
  uniqueness & liveness, membership view consistency, handoff
  atomicity, retransmission-buffer boundedness, and recovery after a
  crash or a partition heal.
  The total-order checker (:class:`repro.metrics.order_checker.
  OrderChecker`) shares the same base and composes into suites.
* :mod:`repro.validation.record` — deterministic trace record/replay:
  canonical JSONL streams, offline replay through monitors, and
  first-divergence diffing between two runs.
* :mod:`repro.validation.suite` — per-system suite assembly; a checked
  run is ``repro.experiments.run_point(spec, check=True)``.
* :mod:`repro.validation.fuzz` — randomized-but-seeded scenario
  generation; a conformance campaign is the sweep runner over
  ``fuzz_points(...)`` with ``check=campaign_suite``.

Quickstart
----------
Check any registry scenario online::

    python -m repro run failure_drill --check

Fuzz the protocol over random scenarios (exit code 1 on violations),
then re-run a failure from the spec file the campaign saved::

    python -m repro fuzz --budget 50 --duration 3000 --save-traces D
    python -m repro run D/fuzz-0007.spec.json --check --spans out

Record a run, replay it offline, diff two runs::

    python -m repro run quickstart --record a.jsonl
    python -m repro replay a.jsonl
    python -m repro replay a.jsonl b.jsonl
"""

# Only the leaf modules (the monitor contract and the monitor family,
# importing nothing but repro.sim.trace) load here.  record / suite /
# fuzz import repro.metrics.order_checker — suite directly, the other
# two through repro.experiments — and order_checker imports
# `repro.validation.monitor`: re-exported from this file they would
# re-enter a half-initialised order_checker whenever it is the first of
# the two to be imported.  Import them from their own modules.
from repro.validation.monitor import Monitor, MonitorSuite
from repro.validation.monitors import (
    BoundsMonitor,
    HandoffMonitor,
    MembershipMonitor,
    RecoveryMonitor,
    TokenMonitor,
)

__all__ = [
    "Monitor", "MonitorSuite",
    "TokenMonitor", "MembershipMonitor", "HandoffMonitor",
    "BoundsMonitor", "RecoveryMonitor",
]
