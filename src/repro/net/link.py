"""Link models.

A link is directional in use but stored per unordered pair with symmetric
parameters.  Delay model per message::

    delay = base_latency + U(0, jitter) + size_bits / bandwidth_bps

Loss model: i.i.d. Bernoulli(loss_prob) per transmission — appropriate
for the paper's "high bit error rate" wireless channels when messages fit
in one frame.  A link cut is a :class:`~repro.faults.plan.Partition` of
its two endpoints: it silently drops everything until it heals (the
reliable transport layer then sees retransmission timeouts, exactly as
a real protocol stack would).

Three canonical profiles are exported:

* :data:`WIRED` — backbone links between BRs/AGs/APs.
* :data:`WIRELESS` — AP↔MH access links (2% loss).
* :data:`LOSSY_WIRELESS` — stressed access links (10% loss) for the
  reliability sweeps (experiment E10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.net.address import NodeId


@dataclass(frozen=True)
class LinkSpec:
    """Immutable link parameterization.

    Attributes
    ----------
    latency:
        One-way propagation delay (simulated time units; we use
        milliseconds throughout the repo).
    jitter:
        Max additional uniform random delay.
    bandwidth_bps:
        Serialization rate; ``0`` disables serialization delay.
    loss_prob:
        Per-transmission independent drop probability.
    """

    latency: float = 1.0
    jitter: float = 0.0
    bandwidth_bps: float = 0.0
    loss_prob: float = 0.0


#: Backbone wired link: 2 ms ± 0.5 ms, effectively lossless.
WIRED = LinkSpec(latency=2.0, jitter=0.5, bandwidth_bps=0.0, loss_prob=0.0)

#: Access wireless link: 5 ms ± 2 ms, 2% loss.
WIRELESS = LinkSpec(latency=5.0, jitter=2.0, bandwidth_bps=0.0, loss_prob=0.02)

#: Stressed wireless link used by reliability sweeps.
LOSSY_WIRELESS = LinkSpec(latency=5.0, jitter=2.0, bandwidth_bps=0.0, loss_prob=0.10)


@dataclass(slots=True)
class Link:
    """A live link instance: spec + counters."""

    a: NodeId
    b: NodeId
    spec: LinkSpec
    sent: int = 0
    dropped: int = 0

    @property
    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """The unordered endpoint pair as stored."""
        return (self.a, self.b)
