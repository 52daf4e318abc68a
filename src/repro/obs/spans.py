"""Out-of-band causal span collection and per-message tree assembly.

The trace bus already narrates every delivered payload's life — a
``source.send`` at the source, a ``wq.insert`` when the SourceData
reaches its ordering NE, an ``ordered`` when the token assigns the
global sequence, and an ``mh.deliver`` per receiving mobile host.  What
it cannot narrate is the *transport*: which link hops a message crossed,
how many retransmissions each hop took, and when the last copy landed at
the MH.  This module closes that gap the same way the rest of
``repro.obs`` watches a run: strictly out of band.

A :class:`SpanCollector` subscribes to the semantic trace kinds above
and additionally registers itself as ``sim.spans``, the null-checked
hook :class:`~repro.net.transport.ReliableChannel` calls on every
segment send / first-delivery receive / give-up.  A run without a
collector executes a single ``is not None`` check per hook site; trace
emission is untouched, so the seed goldens stay byte-identical with
spans on or off — sequentially, sharded, and live (the hooks read
``node.now``, which the live backend freezes per callback, so live
spans carry the same logical-ms clock the lag accounting corrects).

Collected *span events* are flat tuples (cheap to append, JSON-safe);
:func:`assemble` groups them per message key ``(source, local_seq)`` —
the identity that is stable across shard counts and backends — into
:class:`MessageSpan` trees: send root, per-hop segment stats, ordering
waypoints, one :class:`Delivery` leaf per MH.  ``wq.insert`` and
``ordered`` records do not carry the source (the ordering NE is 1:1
with its source), so assembly first learns the ``ordering NE → source``
map from the ``source.send`` records' ``corresponding`` field and then
resolves; under sharding this is why resolution happens at assembly
time, after the per-shard streams merge — a shard that owns the
ordering NE but not the source never sees the ``source.send``.

Sampling is deterministic and shard-agnostic: a message is kept iff
``crc32`` of its source-local sequence number falls under the rate
threshold.  ``local_seq`` is the one key field present at *every*
instrumentation site without cross-entity state, so every shard and
every stage agree on the sampled set (the cost: messages with the same
local seq across sources sample together, which biases no per-stage
statistic).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Tuple
from zlib import crc32

from repro.sim.trace import parse_lines, write_trace_lines

#: Schema tag stamped into span report payloads.
SPAN_SCHEMA = "repro.spans/v1"

#: Trace kinds the collector subscribes to (the semantic waypoints).
TRACE_KINDS = ("source.send", "wq.insert", "ordered", "mh.deliver")

#: Message key: ``(source, local_seq)`` — stable across backends.
Key = Tuple[Any, int]

#: One span event, a flat tuple.  First element is the event code:
#:   ("send", t, source, local_seq, corresponding)
#:   ("wq",   t, node, local_seq)
#:   ("ord",  t, node, ordering_node, local_seq, gseq)
#:   ("dlv",  t, mh, source, local_seq, gseq, latency)
#:   ("segs", t, src, dst, kind, source, local_seq, retx, gid)
#:   ("segr", t, node, peer, kind, source, local_seq)
#:   ("gup",  t, src, dst, kind, source, local_seq)
SpanEvent = Tuple[Any, ...]

#: Length of each span event, by its code.
_ARITY = dict(send=5, wq=4, ord=6, dlv=7, segs=9, segr=7, gup=7)


def sampled(local_seq: Any, rate: float) -> bool:
    """Deterministic keep/drop decision for one message.

    Pure function of ``local_seq`` and ``rate`` — no RNG, no salted
    ``hash()`` — so every shard, backend, and re-run agrees.
    """
    if rate >= 1.0:
        return True
    return crc32(b"span:%r" % (local_seq,)) < int(rate * 2 ** 32)


# ----------------------------------------------------------------------
# Span files: the trace-file format, one compact JSON event per line
# ----------------------------------------------------------------------
def _span_event(line: str) -> SpanEvent:
    event = json.loads(line)
    if not isinstance(event, list):
        raise ValueError(f"a JSON {type(event).__name__}, not an array")
    if not event or _ARITY.get(event[0]) != len(event):
        raise ValueError(f"unknown code or length: {line.strip()[:40]}")
    return tuple(event)


def read_span_events(path: str,
                     lines: Optional[List[str]] = None) -> List[SpanEvent]:
    """Load span events written by :func:`write_span_events` (from
    ``lines``, when the caller has read the file already)."""
    return parse_lines(path, _span_event, "span event", lines)


def write_span_events(path: str, events: Iterable[SpanEvent],
                      window: int = 4096) -> int:
    """Write events as :func:`~repro.sim.trace.write_trace_lines` does
    (``.gz`` gzipped with ``mtime=0``, so the bytes are stable)."""
    return write_trace_lines(
        path, (json.dumps(ev, separators=(",", ":"), default=list)
               for ev in events), window=window)


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
class SpanCollector:
    """Collect span events from a running backend, out of band.

    Attach with the same ``attach(trace)`` / ``detach()`` surface the
    validation observers use, so it composes with
    :func:`repro.experiments.runner.observed_scenario` unchanged; the
    owning runtime is found through the bus back-reference (or passed
    explicitly for runtimes built ahead of the bus).  Attaching
    installs the collector as ``sim.spans`` for the transport hooks and
    subscribes the semantic :data:`TRACE_KINDS`.

    Never emits, schedules, or mutates protocol state — the AST guard
    in ``tests/test_obs_identity.py`` enforces this for the whole
    module.
    """

    def __init__(self, rate: float = 1.0):
        rate = float(rate)
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = rate
        self.events: List[SpanEvent] = []
        # None means "keep everything" (the fast path); otherwise a
        # local_seq -> bool memo so the crc is paid once per message.
        self._keep: Optional[Dict[Any, bool]] = None if rate >= 1.0 else {}
        self._limit = int(rate * 2 ** 32)
        # payload class -> kind tag when the class carries a
        # (source, local_seq) identity, else None.  The protocol
        # messages are __slots__ classes, so this is a true class
        # property; the memo turns the hook's dominant path — control
        # traffic (tokens, acks, WTSNP) with no message identity — into
        # one dict hit, and spares keyed payloads the ``.kind``
        # property call (it computes ``type(self).__name__`` each time).
        self._keyed: Dict[type, Optional[str]] = {}
        self._trace = None
        self._sim = None

    # -- lifecycle ------------------------------------------------------
    def attach(self, trace, sim=None) -> "SpanCollector":
        sim = sim if sim is not None else trace._sim
        if sim is None:
            raise RuntimeError("trace bus has no runtime back-reference; "
                               "pass sim= explicitly")
        if self._trace is not None:
            raise RuntimeError("collector is already attached")
        if sim.spans is not None:
            raise RuntimeError("runtime already has a span collector")
        self._trace = trace
        self._sim = sim
        sim.spans = self
        for kind, fn in self._handlers():
            trace.subscribe(kind, fn)
        return self

    def detach(self) -> None:
        if self._trace is None:
            return
        for kind, fn in self._handlers():
            self._trace.unsubscribe(kind, fn)
        self._sim.spans = None
        self._trace = None
        self._sim = None

    def _handlers(self):
        return (("source.send", self._on_send),
                ("wq.insert", self._on_wq),
                ("ordered", self._on_ordered),
                ("mh.deliver", self._on_deliver))

    # -- sampling -------------------------------------------------------
    def _sampled(self, local_seq: Any) -> bool:
        keep = self._keep
        v = keep.get(local_seq)
        if v is None:
            v = crc32(b"span:%r" % (local_seq,)) < self._limit
            keep[local_seq] = v
        return v

    # -- trace-bus side (one bound handler per kind: no branch chain) ---
    def _on_deliver(self, rec) -> None:
        a = rec.attrs
        lseq = a.get("local_seq")
        if lseq is None:
            return
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("dlv", rec.time, a["mh"], a["source"], lseq,
                            a["gseq"], a["latency"]))

    def _on_ordered(self, rec) -> None:
        a = rec.attrs
        lseq = a.get("local_seq")
        if lseq is None:
            return
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("ord", rec.time, a["node"],
                            a["ordering_node"], lseq, a["gseq"]))

    def _on_wq(self, rec) -> None:
        a = rec.attrs
        lseq = a.get("local_seq")
        if lseq is None:
            return
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("wq", rec.time, a["node"], lseq))

    def _on_send(self, rec) -> None:
        a = rec.attrs
        lseq = a.get("local_seq")
        if lseq is None:
            return
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("send", rec.time, a["source"], lseq,
                            a.get("corresponding")))

    # -- transport hooks (called from ReliableChannel) ------------------
    def _payload_kind(self, payload: Any) -> Optional[str]:
        cls = payload.__class__
        kind = self._keyed.get(cls, False)
        if kind is False:
            carries = (getattr(payload, "local_seq", None) is not None
                       and getattr(payload, "source", None) is not None)
            kind = self._keyed.setdefault(
                cls, cls.__name__ if carries else None)
        return kind

    def seg_send(self, t: float, src: Any, dst: Any, payload: Any,
                 retx: bool) -> None:
        kind = self._payload_kind(payload)
        if kind is None:
            return
        lseq = payload.local_seq
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("segs", t, src, dst, kind, payload.source,
                            lseq, 1 if retx else 0,
                            getattr(payload, "gid", None)))

    def seg_recv(self, t: float, node: Any, peer: Any,
                 payload: Any) -> None:
        kind = self._payload_kind(payload)
        if kind is None:
            return
        lseq = payload.local_seq
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("segr", t, node, peer, kind, payload.source,
                            lseq))

    def give_up(self, t: float, src: Any, dst: Any, payload: Any) -> None:
        kind = self._payload_kind(payload)
        if kind is None:
            return
        lseq = payload.local_seq
        if self._keep is not None and not self._sampled(lseq):
            return
        self.events.append(("gup", t, src, dst, kind, payload.source,
                            lseq))


# ----------------------------------------------------------------------
# Assembled model
# ----------------------------------------------------------------------
class HopStat:
    """Aggregated segment traffic on one (src, dst, payload-kind) hop."""

    __slots__ = ("src", "dst", "kind", "first_send", "last_send", "sends",
                 "retx", "first_recv", "recvs", "give_ups")

    def __init__(self, src: Any, dst: Any, kind: str):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.first_send: Optional[float] = None
        self.last_send: Optional[float] = None
        self.sends = 0
        self.retx = 0
        self.first_recv: Optional[float] = None
        self.recvs = 0
        self.give_ups = 0

    def to_dict(self) -> Dict[str, Any]:
        return {"src": self.src, "dst": self.dst, "kind": self.kind,
                "first_send": self.first_send, "last_send": self.last_send,
                "sends": self.sends, "retx": self.retx,
                "first_recv": self.first_recv, "recvs": self.recvs,
                "give_ups": self.give_ups}


class Delivery:
    """One MH's receipt of the message."""

    __slots__ = ("mh", "t", "gseq", "latency", "arrive_t")

    def __init__(self, mh: Any, t: float, gseq: Any, latency: float):
        self.mh = mh
        self.t = t
        self.gseq = gseq
        self.latency = latency
        #: When the first copy physically reached the MH (seg_recv);
        #: None in coarse (trace-only) assembly.
        self.arrive_t: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"mh": self.mh, "t": self.t, "gseq": self.gseq,
                "latency": self.latency, "arrive_t": self.arrive_t}


class MessageSpan:
    """The assembled causal tree for one ``(source, local_seq)``."""

    __slots__ = ("source", "local_seq", "gid", "ordering_node", "send_t",
                 "wq_t", "ordered_t", "ordered_first", "gseq",
                 "deliveries", "hops")

    def __init__(self, source: Any, local_seq: int):
        self.source = source
        self.local_seq = local_seq
        self.gid: Optional[str] = None
        self.ordering_node: Any = None
        #: Root: the application send (``source.send``); an unrooted
        #: span (None) is a completeness failure for delivered keys.
        self.send_t: Optional[float] = None
        self.wq_t: Optional[float] = None
        #: Global-seq assignment at the ordering NE itself.
        self.ordered_t: Optional[float] = None
        #: Earliest ``ordered`` sighting anywhere (fallback waypoint).
        self.ordered_first: Optional[float] = None
        self.gseq: Any = None
        self.deliveries: List[Delivery] = []
        self.hops: Dict[Tuple[Any, Any, str], HopStat] = {}

    @property
    def key(self) -> Key:
        return (self.source, self.local_seq)

    def hop(self, src: Any, dst: Any, kind: str) -> HopStat:
        k = (src, dst, kind)
        h = self.hops.get(k)
        if h is None:
            h = self.hops[k] = HopStat(src, dst, kind)
        return h

    def hop_into(self, node: Any) -> Optional[HopStat]:
        """The earliest-receiving hop terminating at ``node``."""
        best = None
        for h in self.hops.values():
            if h.dst == node and h.first_recv is not None:
                if best is None or h.first_recv < best.first_recv:
                    best = h
        return best

    def retransmit_ms(self) -> float:
        """Retransmission overlay: extra send-window time across hops."""
        total = 0.0
        for h in self.hops.values():
            if h.retx and h.first_send is not None:
                total += max(0.0, (h.last_send or h.first_send)
                             - h.first_send)
        return total

    def retransmissions(self) -> int:
        return sum(h.retx for h in self.hops.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source, "local_seq": self.local_seq,
            "gid": self.gid, "ordering_node": self.ordering_node,
            "send_t": self.send_t, "wq_t": self.wq_t,
            "ordered_t": self.ordered_t, "gseq": self.gseq,
            "deliveries": [d.to_dict() for d in self.deliveries],
            "hops": [h.to_dict() for h in self.hops.values()],
        }


class SpanSet:
    """Every assembled span plus whatever could not be attached."""

    def __init__(self) -> None:
        self.spans: Dict[Key, MessageSpan] = {}
        #: Events whose ordering NE never announced a source.
        self.orphans: List[SpanEvent] = []

    def span(self, source: Any, local_seq: int) -> MessageSpan:
        k = (source, local_seq)
        s = self.spans.get(k)
        if s is None:
            s = self.spans[k] = MessageSpan(source, local_seq)
        return s

    def delivered(self) -> List[MessageSpan]:
        return [s for s in self.spans.values() if s.deliveries]

    def __len__(self) -> int:
        return len(self.spans)


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
def assemble(events: Iterable[SpanEvent]) -> SpanSet:
    """Group flat span events into per-message trees.

    Two passes: learn the ``ordering NE → source`` map from ``send``
    events (their ``corresponding`` field), then resolve and attach.
    Order-independent, so merged per-shard streams assemble to the
    same set as the sequential stream.
    """
    events = list(events)
    ne2src: Dict[Any, Any] = {}
    for ev in events:
        if ev[0] == "send" and ev[4] is not None:
            ne2src[ev[4]] = ev[2]

    out = SpanSet()
    for ev in events:
        code = ev[0]
        if code == "send":
            _, t, source, lseq, corresponding = ev
            s = out.span(source, lseq)
            s.send_t = t if s.send_t is None else min(s.send_t, t)
            if s.ordering_node is None:
                s.ordering_node = corresponding
        elif code == "wq":
            _, t, node, lseq = ev
            source = ne2src.get(node)
            if source is None:
                out.orphans.append(ev)
                continue
            s = out.span(source, lseq)
            s.wq_t = t if s.wq_t is None else min(s.wq_t, t)
        elif code == "ord":
            _, t, node, ordering_node, lseq, gseq = ev
            source = ne2src.get(ordering_node)
            if source is None:
                out.orphans.append(ev)
                continue
            s = out.span(source, lseq)
            s.gseq = gseq
            if s.ordered_first is None or t < s.ordered_first:
                s.ordered_first = t
            if node == ordering_node:
                s.ordered_t = t if s.ordered_t is None else min(
                    s.ordered_t, t)
        elif code == "dlv":
            _, t, mh, source, lseq, gseq, latency = ev
            s = out.span(source, lseq)
            if s.gseq is None:
                s.gseq = gseq
            s.deliveries.append(Delivery(mh, t, gseq, latency))
        elif code == "segs":
            _, t, src, dst, kind, source, lseq, retx, gid = ev
            s = out.span(source, lseq)
            if gid is not None and s.gid is None:
                s.gid = gid
            h = s.hop(src, dst, kind)
            h.sends += 1
            if retx:
                h.retx += 1
            if h.first_send is None or t < h.first_send:
                h.first_send = t
            if h.last_send is None or t > h.last_send:
                h.last_send = t
        elif code == "segr":
            _, t, node, peer, kind, source, lseq = ev
            s = out.span(source, lseq)
            h = s.hop(peer, node, kind)
            h.recvs += 1
            if h.first_recv is None or t < h.first_recv:
                h.first_recv = t
        elif code == "gup":
            _, t, src, dst, kind, source, lseq = ev
            s = out.span(source, lseq)
            s.hop(src, dst, kind).give_ups += 1
        else:
            out.orphans.append(ev)

    # Resolve each delivery's physical arrival from the hop stats.
    for s in out.spans.values():
        for d in s.deliveries:
            h = s.hop_into(d.mh)
            if h is not None:
                d.arrive_t = h.first_recv
    return out


def events_from_trace(records_or_lines: Iterable[Any]) -> List[SpanEvent]:
    """Coarse span events from an already-recorded trace stream.

    Accepts :class:`~repro.sim.trace.TraceRecord` instances or
    canonical JSONL lines (e.g. a committed golden).  Only the semantic
    waypoints exist in a trace, so the assembled spans have no hop
    detail — stage math falls back to the coarse ``fanout`` stage.
    """
    from repro.sim.trace import line_to_record
    shim = _TraceShim()
    for item in records_or_lines:
        shim.feed(line_to_record(item) if isinstance(item, str) else item)
    return shim.events


class _TraceShim:
    """Reuses the collector's trace-side handlers on offline records."""

    def __init__(self) -> None:
        self._col = SpanCollector(rate=1.0)
        self._dispatch = dict(self._col._handlers())

    def feed(self, rec) -> None:
        fn = self._dispatch.get(rec.kind)
        if fn is not None:
            fn(rec)

    @property
    def events(self) -> List[SpanEvent]:
        return self._col.events


# ----------------------------------------------------------------------
# Completeness
# ----------------------------------------------------------------------
def completeness(spanset: SpanSet) -> Dict[str, Any]:
    """Does every delivered message assemble into one rooted tree?

    Rooted means the span has its ``source.send`` root; the property
    test in ``tests/test_spans.py`` holds this over every registry
    scenario at shards 1/2/4.
    """
    delivered = spanset.delivered()
    unrooted = sorted(
        (s.key for s in delivered if s.send_t is None),
        key=lambda k: (str(k[0]), k[1]))
    return {
        "messages": len(spanset),
        "delivered": len(delivered),
        "deliveries": sum(len(s.deliveries) for s in delivered),
        "unrooted": [list(k) for k in unrooted],
        "orphan_events": len(spanset.orphans),
        "ok": not unrooted and not spanset.orphans,
    }
