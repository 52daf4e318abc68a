"""Multicast sources (paper §4.2.1 and §5).

A source is a wired sender attached to its *corresponding node* in the
top logical ring ("we assume at most one source corresponding to each
node in the top logical ring").  It emits messages with monotonically
increasing **local sequence numbers** at rate λ messages per second:
CBR (exactly 1000/λ ms apart — the workload Theorem 5.1's bounds are
stated for), Poisson (exponential gaps with the same mean), or the
open-world ``flows`` pattern — Poisson flow arrivals where each flow is
a bounded-Pareto-sized burst of back-to-back messages (the load-driven
flow-size shape of psim's TrafficGen).

A ``rate_fn`` makes any pattern time-varying: it maps simulated time to
a multiplicative factor on the base rate (diurnal curves, flash
crowds).  All randomness draws from the per-source stream
``source.<id>``, so sharded runs stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.config import ProtocolConfig
from repro.core.messages import SourceData
from repro.net.address import NodeId
from repro.net.fabric import Fabric
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel


@dataclass(frozen=True)
class FlowProfile:
    """Open-world flow shape: arrival rate and heavy-tailed sizes.

    Flow *sizes* (messages per flow) follow a bounded Pareto with tail
    index ``alpha`` whose scale is chosen so the unbounded mean is
    ``size_mean`` — the canonical elephants-and-mice traffic mix.
    """

    #: Mean new-flow arrivals per second (Poisson).
    arrivals_per_sec: float = 5.0
    #: Mean flow size in messages (sets the Pareto scale).
    size_mean: float = 8.0
    #: Pareto tail index; must be > 1 so the mean is finite.
    alpha: float = 1.5
    #: Hard cap on one flow's size.
    size_max: int = 10_000

    def __post_init__(self) -> None:
        if self.arrivals_per_sec <= 0:
            raise ValueError("arrivals_per_sec must be positive")
        if self.size_mean < 1:
            raise ValueError("size_mean must be >= 1")
        if self.alpha <= 1.0:
            raise ValueError("alpha must be > 1 (finite mean)")
        if self.size_max < 1:
            raise ValueError("size_max must be >= 1")

    def draw_size(self, rng) -> int:
        """One flow size via inverse-transform Pareto sampling."""
        # Pareto(xm, a) has mean xm·a/(a-1); pick xm to hit size_mean.
        xm = self.size_mean * (self.alpha - 1.0) / self.alpha
        u = float(rng.random())
        x = xm / (1.0 - u) ** (1.0 / self.alpha)
        return max(1, min(int(x), self.size_max))


class MulticastSource(NetNode):
    """One message source feeding a top-ring corresponding node."""

    def __init__(
        self,
        fabric: Fabric,
        source_id: NodeId,
        cfg: ProtocolConfig,
        corresponding: NodeId,
        rate_per_sec: float = 10.0,
        pattern: str = "cbr",
        payload_factory: Optional[Callable[[int], Any]] = None,
        rate_fn: Optional[Callable[[float], float]] = None,
        flows: Optional[FlowProfile] = None,
    ):
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        if pattern not in ("cbr", "poisson", "flows"):
            raise ValueError(f"unknown pattern {pattern!r}")
        NetNode.__init__(self, fabric, source_id)
        self.cfg = cfg
        self.corresponding = corresponding
        self.rate_per_sec = rate_per_sec
        self.pattern = pattern
        self.payload_factory = payload_factory or (lambda i: (source_id, i))
        #: Time → multiplicative rate factor (None = constant 1.0).
        self.rate_fn = rate_fn
        self.flows = flows if flows is not None else (
            FlowProfile() if pattern == "flows" else None)
        self.chan = ReliableChannel(self, rto=cfg.rto,
                                    max_retries=cfg.max_retries)
        self.local_seq = 0
        self.sent = 0
        #: Messages still to emit back-to-back in the current flow.
        self._flow_left = 0
        self._timer = self.timer(self._emit)
        self._running = False

    # ------------------------------------------------------------------
    @property
    def interval_ms(self) -> float:
        """Mean inter-message gap in milliseconds."""
        return 1000.0 / self.rate_per_sec

    def start(self, delay: float = 0.0) -> None:
        """Begin emitting after ``delay`` ms."""
        if self._running:
            return
        self._running = True
        self._timer.start(delay + self._next_gap())

    def stop(self) -> None:
        """Stop emitting (already sent messages keep flowing)."""
        self._running = False
        self._timer.stop()

    # ------------------------------------------------------------------
    def _rate_factor(self) -> float:
        """The current time-varying rate multiplier.

        Floored at 1% of the base rate: the curve is *sampled* at
        emission times, not integrated, so a true zero would stall the
        self-rescheduling timer forever.  A 100×-stretched gap models a
        trough faithfully enough for spec-level load curves.
        """
        if self.rate_fn is None:
            return 1.0
        return max(0.01, float(self.rate_fn(self.now)))

    def _next_gap(self) -> float:
        factor = self._rate_factor()
        if self.pattern == "flows":
            return self._next_flow_gap(factor)
        if self.pattern == "cbr":
            return self.interval_ms / factor
        return float(self.sim.rng(f"source.{self.id}")
                     .exponential(self.interval_ms / factor))

    def _next_flow_gap(self, factor: float) -> float:
        """Intra-flow spacing, or an exponential gap to the next flow.

        Inside a flow, messages go back-to-back at the base rate; the
        curve factor modulates how often *flows* arrive.
        """
        if self._flow_left > 0:
            self._flow_left -= 1
            return self.interval_ms
        rng = self.sim.rng(f"source.{self.id}")
        size = self.flows.draw_size(rng)
        self._flow_left = size - 1
        arrivals = self.flows.arrivals_per_sec * factor
        return float(rng.exponential(1000.0 / arrivals))

    def _emit(self) -> None:
        if not self._running:
            return
        seq = self.local_seq
        self._send(seq, self.payload_factory(seq))
        self.sim.trace.emit(self.now, "source.send", source=self.id,
                            local_seq=seq, corresponding=self.corresponding)
        self.local_seq += 1
        self.sent += 1
        self._timer.start(self._next_gap())

    def _send(self, seq: int, payload: Any) -> None:
        """Hand message ``seq`` to the protocol: RingNet sends one
        :class:`SourceData` to the corresponding node; a baseline
        subclass sends its own messages to its own targets."""
        self.chan.send(self.corresponding, SourceData(
            gid=self.cfg.gid, source=self.id, local_seq=seq,
            payload=payload, created_at=self.now))

    def on_message(self, msg: Message) -> None:
        # Sources only ever receive transport acks.
        self.chan.accept(msg)
