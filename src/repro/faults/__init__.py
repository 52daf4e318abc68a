"""Composable fault injection: crashes, partitions, degradation, loss.

The subsystem has three layers:

* :mod:`repro.faults.plan` — declarative, JSON-round-trippable
  :class:`FaultPlan`/:class:`FaultAction` data (attached to
  :class:`~repro.experiments.spec.ExperimentSpec` as its ``faults``
  section);
* :mod:`repro.faults.overlay` — the fabric-side active set consulted by
  ``Fabric.send()`` (installed as ``fabric.fault_overlay``);
* :mod:`repro.faults.driver` — control-plane activation/heal events,
  replicated across shards so K-shard traces stay byte-identical.

``python -m repro show NAME|FILE`` renders and checks a plan.
"""

from repro.faults.gilbert import GilbertElliott
from repro.faults.driver import FaultDriver, structural_home, subtree_nodes
from repro.faults.overlay import FaultOverlay
from repro.faults.plan import (DIRECTIONS, REST, TOKEN_HOLDER,
                               TOKEN_HOLDER_SUBTREE, Crash, Degrade,
                               FaultAction, FaultPlan, Flap, LossBurst,
                               Partition, selector_matches)

__all__ = [
    "DIRECTIONS",
    "REST",
    "TOKEN_HOLDER",
    "TOKEN_HOLDER_SUBTREE",
    "Crash",
    "Degrade",
    "FaultAction",
    "FaultDriver",
    "FaultOverlay",
    "FaultPlan",
    "Flap",
    "GilbertElliott",
    "LossBurst",
    "Partition",
    "selector_matches",
    "structural_home",
    "subtree_nodes",
]
