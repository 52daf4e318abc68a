"""Base message type carried by the fabric.

Concrete protocols subclass :class:`Message` and dispatch on type in
their node handlers.  The fabric itself only reads :attr:`size_bits`
(for bandwidth serialization delay) and fills in the routing envelope
(:attr:`src`, :attr:`dst`, :attr:`sent_at`).
"""

from __future__ import annotations

from repro.net.address import NodeId

#: Default message size used when a subclass does not override it.
#: 1 KB payloads are representative of the paper's application messages.
DEFAULT_SIZE_BITS = 8 * 1024


class Message:
    """A network message.  Subclass and add payload fields.

    Every subclass declares ``__slots__`` (``()`` when it adds no field),
    so a message in flight costs its fields and no instance dict.  The
    envelope slots are unset until :meth:`repro.net.fabric.Fabric.send`
    assigns them; user code never sets them directly, and reading one
    before the first send raises ``AttributeError``.
    """

    __slots__ = ("src", "dst", "sent_at")

    #: Size on the wire, used for serialization delay: size_bits / bandwidth.
    size_bits: int = DEFAULT_SIZE_BITS

    src: NodeId
    dst: NodeId
    sent_at: float

    @property
    def kind(self) -> str:
        """Short type tag used in traces (the class name)."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        src, dst = getattr(self, "src", None), getattr(self, "dst", None)
        return f"<{self.kind} {src}->{dst}>"
