"""Base class for every simulated network entity."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.net.address import NodeId
from repro.net.message import Message
from repro.runtime.api import Runtime
from repro.runtime.timers import PeriodicTimer, Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.fabric import Fabric


class NetNode:
    """A protocol endpoint attached to a :class:`~repro.net.fabric.Fabric`.

    Subclasses override :meth:`on_message`.  Construction registers the
    node with the fabric; a node that has been :meth:`crash`-ed neither
    sends nor receives again.

    Slotted so fully-slotted leaf subclasses (``MobileHost`` above all —
    the entity class that exists a million times at the metro rung) pay
    no per-instance ``__dict__``; subclasses that declare no
    ``__slots__`` of their own still get a dict and lose nothing.
    """

    __slots__ = ("fabric", "sim", "id", "alive", "rx_count", "tx_count")

    def __init__(self, fabric: "Fabric", node_id: NodeId):
        self.fabric = fabric
        #: The runtime driving this node's fabric (sim or live) — fixed
        #: for the fabric's life, so held directly: protocol code reads
        #: it on every message.
        self.sim: Runtime = fabric.sim
        self.id = node_id
        self.alive = True
        self.rx_count = 0
        self.tx_count = 0
        fabric.register(self)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current time (simulated or wall-clock-derived, in ms)."""
        return self.sim.now

    # ------------------------------------------------------------------
    def send(self, dst: NodeId, msg: Message) -> bool:
        """Fire-and-forget transmission over the direct link to ``dst``.

        Returns False when the message was not even handed to the fabric
        (this node crashed).  Loss in flight is *not* reported — that is
        the transport layer's problem.
        """
        if not self.alive:
            return False
        self.tx_count += 1
        return self.fabric.send(self.id, dst, msg)

    def timer(self, fn: Callable[..., Any], *args: Any) -> Timer:
        """Convenience: a one-shot timer bound to this node's simulator."""
        return Timer(self.sim, fn, *args)

    def periodic(self, period: float, fn: Callable[..., Any], *args: Any,
                 phase: float = 0.0) -> PeriodicTimer:
        """Convenience: a periodic timer bound to this node's simulator."""
        return PeriodicTimer(self.sim, period, fn, *args, phase=phase)

    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Called by the fabric when a message survives the link."""
        if not self.alive:
            return
        self.rx_count += 1
        self.on_message(msg)

    def on_message(self, msg: Message) -> None:
        """Override in subclasses; default drops silently."""

    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Fail-stop this node (messages to/from it vanish)."""
        self.alive = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.id} {state}>"
