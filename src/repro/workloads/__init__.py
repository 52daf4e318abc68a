"""Workload construction: traffic, churn, and the scenario bundle.

* :mod:`repro.workloads.generators` — source fleets (uniform /
  heterogeneous rates, CBR / Poisson) attached round-robin to the top
  ring, the shape §5 analyzes (s sources × λ msg/s each).
* :mod:`repro.workloads.churn` — join/leave churn scripts driving MH
  membership over time.
* :mod:`repro.workloads.scenarios` — the runnable :class:`Scenario`
  bundle; named scenarios are declarative specs in
  :mod:`repro.experiments.registry`.
"""

from repro.workloads.generators import (SourceFleet, uniform_sources,
                                        weighted_sources)
from repro.workloads.churn import ChurnDriver
from repro.workloads.scenarios import Scenario

__all__ = [
    "SourceFleet",
    "uniform_sources",
    "weighted_sources",
    "ChurnDriver",
    "Scenario",
]
