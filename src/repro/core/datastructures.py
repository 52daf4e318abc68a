"""The MH/NE data structures of paper §4.1.

Three structures, kept faithful to the paper's field inventory:

* :class:`MessageQueue` (MQ) — the ordered message buffer, indexed by
  global sequence number, with the paper's ``Rear`` / ``Front`` /
  ``ValidFront`` pointers and per-message ``Received`` / ``Waiting`` /
  ``Delivered`` flags.  The paper's "really lost" rule is implemented by
  :meth:`MessageQueue.tombstone_lost`: a message that is not received and
  no longer awaited is *considered delivered* so ordered delivery never
  wedges (best-effort reliability).
* :class:`WorkingQueue` (WQ) — a list of per-source queues of raw
  messages awaiting ordering, used only by top-ring NEs.
* :class:`WorkingTable` (WT) — per-child (or per-MH) maximum delivered
  global sequence number, used by Message-Delivering.

The paper prescribes sequential storage with a fixed ``MaxNo``; we use a
dict-backed window with the same external contract (capacity accounting,
overflow counting, pointer semantics) because the experiments need to
*measure* occupancy against Theorem 5.1's bounds rather than crash at
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.address import NodeId


@dataclass(slots=True)
class BufferedMessage:
    """One multicast message as buffered in an MQ (paper §4.1).

    ``received=False, waiting=False, delivered=True`` encodes the paper's
    tombstone for a really-lost message.
    """

    global_seq: int
    source: NodeId
    local_seq: int
    ordering_node: NodeId
    payload: Any = None
    received: bool = True
    waiting: bool = False
    delivered: bool = False
    created_at: float = 0.0   # stamped by the source
    ordered_at: float = 0.0   # when Order-Assignment copied it to an MQ
    delivered_at: float = 0.0

    @property
    def really_lost(self) -> bool:
        """The paper's loss tombstone predicate."""
        return not self.received and not self.waiting


class MessageQueue:
    """MQ: ordered messages indexed by global sequence number.

    Pointers (all in global-sequence space):

    * ``rear`` — highest sequence ever inserted (paper: most recently
      received message).
    * ``front`` — highest sequence *contiguously* delivered from this
      node's starting point (delivery is in order, so the paper's "most
      recently delivered" pointer advances contiguously).
    * ``valid_front`` — oldest sequence still buffered; delivered
      messages between ``valid_front`` and ``front`` are the handoff
      catch-up reserve (paper: ValidFront, NEs only).
    * ``missing`` — how many sequences in ``(front, rear]`` are not
      buffered: the holes gap recovery chases, counted in O(1).
    """

    __slots__ = ("capacity", "start_seq", "_store", "get",
                 "rear", "front", "valid_front", "missing",
                 "peak_occupancy", "overflows", "inserted", "tombstoned")

    def __init__(self, capacity: int = 0, start_seq: int = 0):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 = unbounded)")
        self.capacity = capacity
        self.start_seq = start_seq
        self._store: Dict[int, BufferedMessage] = {}
        #: ``get(seq)`` — the buffered message at ``seq``, or None: the
        #: store's own lookup (``_store`` is never rebound), frame-free.
        self.get = self._store.get
        self.rear: int = start_seq - 1
        self.front: int = start_seq - 1
        self.valid_front: int = start_seq
        self.missing: int = 0
        self.peak_occupancy: int = 0
        self.overflows: int = 0
        self.inserted: int = 0
        self.tombstoned: int = 0

    def anchor(self, start_seq: int) -> None:
        """Re-base an *empty* queue at ``start_seq``.

        Used when a cold NE (freshly built multicast path) receives its
        first ordered message: everything before it is before-my-time,
        not a hole to recover.
        """
        if self._store:
            raise ValueError("anchor() requires an empty queue")
        self.start_seq = start_seq
        self.rear = start_seq - 1
        self.front = start_seq - 1
        self.valid_front = start_seq
        self.missing = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, msg: BufferedMessage) -> bool:
        """Buffer an ordered message; returns False for duplicates/stale.

        Messages at or below ``front`` (already delivered past) and below
        ``valid_front`` are stale and rejected.
        """
        seq = msg.global_seq
        if seq in self._store or seq <= self.front or seq < self.valid_front:
            return False
        if self.capacity and len(self._store) >= self.capacity:
            self.overflows += 1
        self._store[seq] = msg
        self.inserted += 1
        if seq > self.rear:
            self.missing += seq - self.rear - 1
            self.rear = seq
        else:
            self.missing -= 1       # a hole filled (seq > front held)
        if len(self._store) > self.peak_occupancy:
            self.peak_occupancy = len(self._store)
        return True

    def tombstone_lost(self, seq: int, source: NodeId = "?",
                       ordering_node: NodeId = "?") -> BufferedMessage:
        """Record sequence ``seq`` as really lost (and hence delivered)."""
        msg = self._store.get(seq)
        if msg is None:
            msg = BufferedMessage(
                global_seq=seq, source=source, local_seq=-1,
                ordering_node=ordering_node, payload=None,
                received=False, waiting=False, delivered=True,
            )
            self._store[seq] = msg
            if seq > self.rear:
                self.missing += seq - self.rear - 1
                self.rear = seq
            elif seq > self.front:
                self.missing -= 1
        else:
            msg.received = False
            msg.waiting = False
            msg.delivered = True
        self.tombstoned += 1
        return msg

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def has(self, seq: int) -> bool:
        """Whether ``seq`` is currently buffered (received or tombstone)."""
        return seq in self._store

    def __contains__(self, seq: int) -> bool:
        return seq in self._store

    def __len__(self) -> int:
        return len(self._store)

    @property
    def occupancy(self) -> int:
        """Messages currently buffered."""
        return len(self._store)

    def range(self, from_seq: int, to_seq: int) -> Iterator[BufferedMessage]:
        """Buffered messages with from_seq <= seq <= to_seq, in order."""
        for seq in range(from_seq, to_seq + 1):
            msg = self._store.get(seq)
            if msg is not None:
                yield msg

    # ------------------------------------------------------------------
    # Delivery pointers
    # ------------------------------------------------------------------
    def mark_delivered(self, seq: int, at: float = 0.0) -> None:
        """Flag one message delivered (front advances via advance_front)."""
        msg = self._store.get(seq)
        if msg is not None:
            msg.delivered = True
            msg.delivered_at = at

    def advance_front(self) -> int:
        """Advance ``front`` over contiguously delivered messages.

        Returns the number of positions advanced.
        """
        moved = 0
        while True:
            nxt = self._store.get(self.front + 1)
            if nxt is None or not nxt.delivered:
                break
            self.front += 1
            moved += 1
        return moved

    def prune(self, retention: int) -> int:
        """Drop delivered messages more than ``retention`` behind front.

        Returns the number of messages dropped; ``valid_front`` advances
        accordingly.  Never drops undelivered messages.
        """
        new_valid = self.front - retention + 1
        if new_valid <= self.valid_front:
            return 0
        dropped = 0
        for seq in range(self.valid_front, new_valid):
            if self._store.pop(seq, None) is not None:
                dropped += 1
        self.valid_front = new_valid
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MQ n={len(self._store)} front={self.front} rear={self.rear} "
            f"valid_front={self.valid_front} peak={self.peak_occupancy}>"
        )


@dataclass(slots=True)
class WQEntry:
    """One raw message awaiting ordering in a WQ stream."""

    ordering_node: NodeId
    source: NodeId
    local_seq: int
    payload: Any
    created_at: float
    arrived_at: float


class WorkingQueue:
    """WQ: per-ordering-node streams of raw messages awaiting ordering.

    The paper designs WQ as "a list of queues, each of which is used to
    keep messages from one source" — here keyed by the ordering node
    (one source per top-ring node, §4.2.1 assumption).
    """

    __slots__ = ("capacity_per_stream", "_streams", "peak_occupancy",
                 "overflows", "inserted")

    def __init__(self, capacity_per_stream: int = 0):
        self.capacity_per_stream = capacity_per_stream
        self._streams: Dict[NodeId, Dict[int, WQEntry]] = {}
        self.peak_occupancy: int = 0
        self.overflows: int = 0
        self.inserted: int = 0

    def insert(self, entry: WQEntry) -> bool:
        """Add a raw message; returns False when it is a duplicate."""
        stream = self._streams.setdefault(entry.ordering_node, {})
        if entry.local_seq in stream:
            return False
        if self.capacity_per_stream and len(stream) >= self.capacity_per_stream:
            self.overflows += 1
        stream[entry.local_seq] = entry
        self.inserted += 1
        occ = self.occupancy
        if occ > self.peak_occupancy:
            self.peak_occupancy = occ
        return True

    def remove(self, ordering_node: NodeId, local_seq: int) -> Optional[WQEntry]:
        """Remove and return one entry (None when absent)."""
        stream = self._streams.get(ordering_node)
        if stream is None:
            return None
        return stream.pop(local_seq, None)

    def stream(self, ordering_node: NodeId) -> Dict[int, WQEntry]:
        """The live dict of one stream (empty dict when absent)."""
        return self._streams.get(ordering_node, {})

    def streams(self) -> Iterable[Tuple[NodeId, Dict[int, WQEntry]]]:
        """Iterate (ordering_node, stream dict) pairs."""
        return self._streams.items()

    @property
    def occupancy(self) -> int:
        """Total raw messages buffered across all streams."""
        return sum(len(s) for s in self._streams.values())

    def __len__(self) -> int:
        return self.occupancy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WQ streams={len(self._streams)} n={self.occupancy} peak={self.peak_occupancy}>"


class WorkingTable:
    """WT: per-child (or per-MH) max delivered global sequence number.

    ``add_child(child, from_seq)`` registers a child that should receive
    messages *after* ``from_seq`` (i.e. its first message is
    ``from_seq + 1``) — this is how handoff catch-up and late joins seed
    delivery state.
    """

    __slots__ = ("_max_delivered", "_sorted")

    def __init__(self) -> None:
        self._max_delivered: Dict[NodeId, int] = {}
        self._sorted: Optional[List[NodeId]] = None

    def add_child(self, child: NodeId, from_seq: int) -> None:
        """Register/reset a child at ``from_seq``."""
        if child not in self._max_delivered:
            self._sorted = None
        self._max_delivered[child] = from_seq

    def remove_child(self, child: NodeId) -> None:
        """Forget a departed child; no-op when unknown."""
        if self._max_delivered.pop(child, None) is not None:
            self._sorted = None

    def record_delivered(self, child: NodeId, seq: int) -> None:
        """Raise a child's max delivered seq (never lowers it)."""
        cur = self._max_delivered.get(child)
        if cur is not None and seq > cur:
            self._max_delivered[child] = seq

    def max_delivered(self, child: NodeId) -> Optional[int]:
        """The child's max delivered seq, or None when unknown."""
        return self._max_delivered.get(child)

    @property
    def children(self) -> List[NodeId]:
        """Registered children, sorted for stable iteration — once per
        membership change; the list is shared, so do not mutate it."""
        if self._sorted is None:
            self._sorted = sorted(self._max_delivered)
        return self._sorted

    def min_delivered_across(self) -> Optional[int]:
        """Min over children of max delivered seq (None when no children).

        This is the paper's "maximal global sequence number of the
        message which has been delivered to *all* the children nodes" —
        the value that gates MQ front advancement.
        """
        if not self._max_delivered:
            return None
        return min(self._max_delivered.values())

    def __contains__(self, child: NodeId) -> bool:
        return child in self._max_delivered

    def __len__(self) -> int:
        return len(self._max_delivered)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<WT children={len(self._max_delivered)}>"
