"""Structured trace bus and the canonical trace serialization.

Protocol code emits semantic records (``kind`` + attribute dict); metric
collectors subscribe by kind.  The bus is intentionally dumb and fast:
it retains no records (a subscriber keeps what it needs), so tracing
costs almost nothing in benchmark runs.

The canonical JSONL form (:func:`record_to_line` /
:func:`line_to_record`) lives here with the bus so that *every*
consumer — the validation recorder, the shard merge, the streaming sink
below — serializes one way.  :class:`StreamingTraceSink` writes that
form to a compressed file in bounded windows: at million-MH scale a run
emits far more records than fit in memory, and the sink keeps trace
memory O(window) instead of O(run length) while producing
byte-identical lines.
"""

from __future__ import annotations

import gzip
import json
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One semantic event: e.g. ``kind='deliver'``, attrs for details."""

    time: float
    kind: str
    attrs: Dict[str, Any] = field(default_factory=dict)

    def __getitem__(self, key: str) -> Any:
        return self.attrs[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.attrs.get(key, default)


Subscriber = Callable[[TraceRecord], None]


# ----------------------------------------------------------------------
# Canonical (de)serialization
# ----------------------------------------------------------------------
def record_to_line(rec: TraceRecord) -> str:
    """One canonical JSONL line (no trailing newline).

    Attribute tuples serialize as JSON arrays and load back as tuples
    (the trace vocabulary uses tuples — e.g. ``token_id`` — and never
    semantically distinguishes list from tuple); keys sort; floats use
    ``repr`` round-tripping via the stdlib ``json`` module.
    """
    return json.dumps({"t": rec.time, "k": rec.kind, "a": rec.attrs},
                      sort_keys=True, separators=(",", ":"), default=list)


def _canonical(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    return value


def line_to_record(line: str) -> TraceRecord:
    """Parse one JSONL line back into a :class:`TraceRecord`."""
    data = json.loads(line)
    attrs = {k: _canonical(v) for k, v in data["a"].items()}
    return TraceRecord(time=float(data["t"]), kind=data["k"], attrs=attrs)


# ----------------------------------------------------------------------
# Streaming sink
# ----------------------------------------------------------------------
class StreamingTraceSink:
    """Stream every bus record to a (compressed) JSONL file, windowed.

    A wildcard subscriber that serializes records with
    :func:`record_to_line` and writes them out every ``window`` records,
    so trace memory stays bounded no matter how long the run is.  Paths
    ending in ``.gz`` are gzip-compressed with ``mtime=0`` — the same
    byte-stable framing as the committed seed goldens, so a streamed
    file of an unchanged scenario diffs clean against its golden.

    An observer (:meth:`attach` / :meth:`detach`, the surface
    :class:`~repro.validation.record.TraceRecorder` has) that also owns
    a file, so it is closed after the run (or used as a context
    manager, which detaches *and* closes on exit)::

        sink = StreamingTraceSink(path)
        try:
            with observed_scenario(spec, sink) as scenario:
                scenario.run()
        finally:
            sink.close()
    """

    def __init__(self, path: str, window: int = 4096):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.path = path
        self.window = window
        self.count = 0
        self._buffer: List[str] = []
        self._trace: Optional[TraceBus] = None
        if path.endswith(".gz"):
            self._fh = gzip.GzipFile(path, "wb", mtime=0)
        else:
            self._fh = open(path, "wb")
        self._closed = False

    # -- subscription lifecycle ----------------------------------------
    def attach(self, trace: TraceBus) -> "StreamingTraceSink":
        if self._trace is not None:
            raise RuntimeError("sink is already attached")
        if self._closed:
            raise RuntimeError("sink is closed")
        self._trace = trace
        trace.subscribe(None, self._on_record)
        return self

    def detach(self) -> None:
        if self._trace is not None:
            self._trace.unsubscribe(None, self._on_record)
            self._trace = None

    def __enter__(self) -> "StreamingTraceSink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.detach()
        self.close()

    # -- record flow ----------------------------------------------------
    def _on_record(self, rec: TraceRecord) -> None:
        buf = self._buffer
        buf.append(record_to_line(rec))
        self.count += 1
        if len(buf) >= self.window:
            self.flush()

    def flush(self) -> None:
        """Write the buffered window out (file stays open)."""
        if self._buffer:
            data = "".join(line + "\n" for line in self._buffer)
            self._fh.write(data.encode("utf-8"))
            self._buffer.clear()

    def close(self) -> None:
        """Flush the tail window and close the file (idempotent)."""
        if not self._closed:
            self.detach()
            self.flush()
            self._fh.close()
            self._closed = True


def read_trace_lines(path: str) -> List[str]:
    """The non-blank lines of a JSONL file, gunzipped when it starts
    with gzip's magic bytes.  A truncated, corrupt or non-UTF-8 file is
    a ``ValueError`` naming ``path``."""
    with open(path, "rb") as fh:
        gzipped = fh.read(2) == b"\x1f\x8b"
    try:
        with (gzip.open if gzipped else open)(path, "rt",
                                              encoding="utf-8") as fh:
            return [line.rstrip("\n") for line in fh if line.strip()]
    except (EOFError, gzip.BadGzipFile, zlib.error,
            UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def parse_lines(path: str, parse: Callable[[str], Any], what: str,
                lines: Optional[List[str]] = None) -> List[Any]:
    """``parse`` over :func:`read_trace_lines` (or ``lines``, already
    read from ``path``).  A line it cannot parse is a ``ValueError``
    naming ``path`` and the line's number among the non-blank lines."""
    out = []
    for n, line in enumerate(read_trace_lines(path) if lines is None
                             else lines, 1):
        try:
            out.append(parse(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: line {n}: not a {what} "
                             f"({type(exc).__name__}: {exc})") from None
    return out


def write_trace_lines(path: str, lines, window: int = 4096) -> int:
    """Write pre-serialized canonical lines to ``path`` in windows.

    The file-format twin of :class:`StreamingTraceSink` for producers
    that already hold lines rather than a live bus — the sharded merge,
    chiefly.  ``lines`` may be any iterable; at most ``window`` lines
    are buffered.  Returns the line count.
    """
    if path.endswith(".gz"):
        fh = gzip.GzipFile(path, "wb", mtime=0)
    else:
        fh = open(path, "wb")
    n = 0
    buf: List[str] = []
    with fh:
        for line in lines:
            buf.append(line)
            n += 1
            if len(buf) >= window:
                fh.write("".join(l + "\n" for l in buf).encode("utf-8"))
                buf.clear()
        if buf:
            fh.write("".join(l + "\n" for l in buf).encode("utf-8"))
    return n


class TraceBus:
    """Publish/subscribe hub for :class:`TraceRecord` instances.

    Parameters
    ----------
    counting:
        When True (the default), :attr:`counts` tallies emits per kind.
        Benchmark runs pass False so the nobody-listens fast path does
        no dict mutation at all.
    """

    def __init__(self, counting: bool = True):
        self._subs_by_kind: Dict[str, List[Subscriber]] = {}
        self._subs_all: List[Subscriber] = []
        self.counting = counting
        self.counts: Dict[str, int] = {}
        #: Back-reference to the owning simulator (set by ``Simulator``);
        #: keyed recorders use it to stamp records with causal keys.
        self._sim = None
        #: Optional zero-arg predicate installed by a shard worker: when
        #: it returns False the emission is suppressed entirely (the
        #: record belongs to an entity another shard owns).  ``None`` —
        #: the sequential default — emits everything.
        self.gate: Optional[Callable[[], bool]] = None
        # Emit-side dispatch caches, rebuilt on (un)subscribe: the
        # wildcard list as a tuple, and per subscribed kind the deduped
        # kind-subscribers-then-wildcards call list.  ``emit`` only ever
        # does one dict lookup against these.
        self._wild: tuple = ()
        self._dispatch: Dict[str, tuple] = {}

    def _rebuild_dispatch(self) -> None:
        self._wild = tuple(self._subs_all)
        self._dispatch = {
            kind: tuple(subs) + tuple(
                fn for fn in self._subs_all if fn not in subs)
            for kind, subs in self._subs_by_kind.items()
        }

    # ------------------------------------------------------------------
    def subscribe(self, kind: Optional[str], fn: Subscriber) -> None:
        """Subscribe ``fn`` to records of ``kind`` (None = all kinds).

        A subscriber registered for both a kind and the wildcard is
        called once per record, not twice.
        """
        if kind is None:
            self._subs_all.append(fn)
        else:
            self._subs_by_kind.setdefault(kind, []).append(fn)
        self._rebuild_dispatch()

    def unsubscribe(self, kind: Optional[str], fn: Subscriber) -> None:
        """Remove a subscription added with :meth:`subscribe`."""
        if kind is None:
            self._subs_all.remove(fn)
        else:
            subs = self._subs_by_kind[kind]
            subs.remove(fn)
            if not subs:
                # Drop the empty list so ``emit`` stays on its cheap
                # nobody-listens fast path for this kind.
                del self._subs_by_kind[kind]
        self._rebuild_dispatch()

    @contextmanager
    def subscription(self, kind: Optional[str], fn: Subscriber) -> Iterator[Subscriber]:
        """Scoped subscription: detaches on exit even on error.

        ::

            with bus.subscription("mh.deliver", on_deliver):
                scenario.run()
        """
        self.subscribe(kind, fn)
        try:
            yield fn
        finally:
            self.unsubscribe(kind, fn)

    @property
    def subscriber_count(self) -> int:
        """Total live subscriptions (all kinds plus wildcard)."""
        return (len(self._subs_all)
                + sum(len(s) for s in self._subs_by_kind.values()))

    # ------------------------------------------------------------------
    def emit(self, time: float, kind: str, **attrs: Any) -> None:
        """Publish a record; cheap when nobody listens."""
        gate = self.gate
        if gate is not None and not gate():
            return
        if self.counting:
            counts = self.counts
            counts[kind] = counts.get(kind, 0) + 1
        fns = self._dispatch.get(kind)
        if fns is None:
            fns = self._wild
            if not fns:
                return
        rec = TraceRecord(time, kind, attrs)
        for fn in fns:
            fn(rec)
