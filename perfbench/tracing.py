"""Outside-in tracing: timing shims at the layer boundaries.

:meth:`Tracer.install` wraps the calls *into* each layer with
class-attribute shims (nothing under ``src/`` changes) and
:meth:`Tracer.uninstall` restores the originals.  While installed, a
span stack attributes **self time** (a span's duration minus the part
its child spans cover) to the layer that owns each boundary.  The
engines' ``run`` is itself a boundary and the root span of a pass, so
the per-layer times sum to the traced wall by construction and the
shares to 1; call counts are taken at the same boundaries; and every
``KEEP_EVERY``-th root dispatch keeps its full span tree (name, start,
end, parent id, root id) in memory for :meth:`Tracer.write_spans`.

Shims observe only: they never schedule, emit or draw randomness, so a
shimmed run executes the identical event sequence (the self-test
asserts it).  The shim's own cost lands in the *parent* span's self
time — shares are shares of the traced wall, and the traced wall over
the untraced noise-floor wall is reported as the tracing overhead.

Events and ownership sections run arbitrary callbacks; those two
boundaries are attributed to the layer of the callback's module
(a timer's callback to the timer's target), not to the engine.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

from repro.core.datastructures import MessageQueue, WorkingQueue
from repro.core.mobile_host import MobileHost
from repro.core.ne import NetworkEntity
from repro.core.source import MulticastSource
from repro.core.token import OrderingToken
from repro.live.runtime import LiveRuntime
from repro.net.fabric import Fabric
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.runtime.timers import PeriodicTimer, Timer
from repro.sim.engine import Simulator
from repro.sim.trace import TraceBus

#: Module prefix -> layer, first match wins (most specific first).
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.trace", "trace"),
    ("repro.sim", "engine"),
    ("repro.runtime", "engine"),
    ("repro.live.runtime", "live"),
    ("repro.net.transport", "transport"),
    ("repro.live.fabric", "fabric"),
    ("repro.net", "fabric"),
    ("repro.core", "core"),
    ("repro.membership", "core"),
    ("repro.topology", "core"),
)

#: Every ``KEEP_EVERY``-th root dispatch keeps its span tree.
KEEP_EVERY = 64

#: Layer of callbacks from everywhere else: sources' fleets, mobility,
#: churn and fault drivers, the live load generator, perfbench's probes.
DRIVERS = "drivers"

#: ``(class, method, layer)`` — the static boundaries.
_BOUNDARIES: Tuple[Tuple[type, str, str], ...] = (
    (Simulator, "run", "engine"),
    (Simulator, "schedule", "engine"),
    (Simulator, "schedule_at", "engine"),
    (Simulator, "schedule_keyed", "engine"),
    (Timer, "start", "engine"),
    (Timer, "stop", "engine"),
    (PeriodicTimer, "start", "engine"),
    (PeriodicTimer, "stop", "engine"),
    (LiveRuntime, "run", "live"),
    (LiveRuntime, "schedule", "live"),
    (LiveRuntime, "schedule_at", "live"),
    (LiveRuntime, "cancel", "live"),
    (Fabric, "send", "fabric"),
    (NetNode, "send", "fabric"),
    (NetNode, "deliver", "fabric"),
    (ReliableChannel, "send", "transport"),
    (ReliableChannel, "accept", "transport"),
    (ReliableChannel, "cancel_all", "transport"),
    (NetworkEntity, "on_message", "core"),
    (MobileHost, "on_message", "core"),
    (MulticastSource, "on_message", "core"),
    (MessageQueue, "insert", "core"),
    (MessageQueue, "mark_delivered", "core"),
    (MessageQueue, "advance_front", "core"),
    (MessageQueue, "prune", "core"),
    (WorkingQueue, "insert", "core"),
    (WorkingQueue, "remove", "core"),
    (OrderingToken, "assign", "core"),
    (OrderingToken, "snapshot", "core"),
)

#: The engines' one dispatch seam (``repro.obs`` routes through it too):
#: its argument is the event/handle, whose ``fn`` is the callback.
_DISPATCH: Tuple[Tuple[type, str], ...] = (
    (Simulator, "_execute"),
    (LiveRuntime, "_execute"),
)

#: ``(class, method, index of the callback argument)`` — ownership
#: sections, which also run an arbitrary callback.
_OWNED: Tuple[Tuple[type, str, int], ...] = (
    (Simulator, "call_owned", 2),
    (LiveRuntime, "call_owned", 2),
    (LiveRuntime, "run_inline", 3),
)


def _module_layer(module: str, _cache: Dict[str, str] = {}) -> str:
    layer = _cache.get(module)
    if layer is None:
        layer = next((lay for prefix, lay in MODULE_LAYERS
                      if module == prefix or module.startswith(prefix + ".")),
                     DRIVERS)
        _cache[module] = layer
    return layer


def callback_layer(fn: Callable[..., Any]) -> str:
    """Layer that owns a scheduled callback."""
    target = getattr(fn, "__self__", None)
    if isinstance(target, (Timer, PeriodicTimer)):
        fn = target.fn
        target = getattr(fn, "__self__", None)
    module = (type(target).__module__ if target is not None
              else getattr(fn, "__module__", "") or "")
    return _module_layer(module)


class Tracer:
    """Span stack, per-layer self time and per-boundary counts."""

    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: ``TraceBus.emit`` calls by record kind.
        self.kinds: Dict[str, int] = defaultdict(int)
        #: ``Simulator.cancel`` calls that killed a still-queued event.
        self.effective_cancels = 0
        self.dispatches = 0
        #: Kept span trees: (id, parent id, root id, name, layer, t0, t1).
        self.spans: List[Tuple[int, int, int, str, str, float, float]] = []
        # One frame per open span: [child seconds, span id (0 = not kept)].
        self._stack: List[List[Any]] = []
        self._keeping = False
        self._root_id = 0
        self._next_id = 1
        self._installed: List[Tuple[type, str, Any]] = []

    # -- the one span primitive -----------------------------------------
    def _span(self, name: str, layer: str, orig, args, kwargs):
        stack = self._stack
        frame = [0.0, 0]
        if self._keeping:
            frame[1] = self._next_id
            self._next_id += 1
        stack.append(frame)
        t0 = perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            dt = t1 - t0
            self.self_s[layer] += dt - frame[0]
            parent = 0
            if stack:
                stack[-1][0] += dt
                parent = stack[-1][1]
            if frame[1]:
                self.spans.append((frame[1], parent, self._root_id, name,
                                   layer, t0, t1))

    # -- shim factories --------------------------------------------------
    def _static(self, orig, name: str, layer: str):
        calls, span = self.calls, self._span

        def shim(*args, **kwargs):
            calls[name] += 1
            return span(name, layer, orig, args, kwargs)
        return shim

    def _emit(self, orig, name: str):
        calls, kinds, span = self.calls, self.kinds, self._span

        def shim(*args, **kwargs):
            calls[name] += 1
            kinds[args[2]] += 1        # emit(self, time, kind, **attrs)
            return span(name, "trace", orig, args, kwargs)
        return shim

    def _cancel(self, orig, name: str):
        calls, span = self.calls, self._span

        def shim(sim, event):
            calls[name] += 1
            if not event.cancelled and event.in_heap:
                self.effective_cancels += 1
            return span(name, "engine", orig, (sim, event), {})
        return shim

    def _owned(self, orig, name: str, fn_index: int):
        calls, span = self.calls, self._span

        def shim(*args, **kwargs):
            calls[name] += 1
            return span(name, callback_layer(args[fn_index]), orig, args,
                        kwargs)
        return shim

    def _dispatch(self, orig, name: str):
        span = self._span

        def shim(runtime, event, *rest):
            self.dispatches += 1
            # A dispatch nested in a kept tree (never on these engines,
            # but harmless) must not reset the root.
            outermost = not self._keeping
            if outermost and self.dispatches % KEEP_EVERY == 0:
                self._keeping = True
                self._root_id = self._next_id
            try:
                return span(name, callback_layer(event.fn), orig,
                            (runtime, event) + rest, {})
            finally:
                if outermost:
                    self._keeping = False
        return shim

    # -- install / uninstall ---------------------------------------------
    def _patch(self, cls: type, attr: str, make) -> None:
        owner = next(c for c in cls.__mro__ if attr in vars(c))
        orig = vars(owner)[attr]
        self._installed.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def install(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for cls, attr, layer in _BOUNDARIES:
            name = f"{cls.__name__}.{attr}"
            self._patch(cls, attr,
                        lambda orig, n=name, lay=layer:
                        self._static(orig, n, lay))
        self._patch(TraceBus, "emit",
                    lambda orig: self._emit(orig, "TraceBus.emit"))
        self._patch(Simulator, "cancel",
                    lambda orig: self._cancel(orig, "Simulator.cancel"))
        for cls, attr, idx in _OWNED:
            self._patch(cls, attr,
                        lambda orig, n=f"{cls.__name__}.{attr}", i=idx:
                        self._owned(orig, n, i))
        for cls, attr in _DISPATCH:
            self._patch(cls, attr,
                        lambda orig, n=f"{cls.__name__}.dispatch":
                        self._dispatch(orig, n))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    @property
    def traced_s(self) -> float:
        """Sum of all self times = wall covered by the root spans."""
        return sum(self.self_s.values())

    def share(self, layer: str) -> float:
        total = self.traced_s
        return self.self_s.get(layer, 0.0) / total if total else 0.0

    def count(self, *names: str) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def write_spans(self, path: str) -> int:
        """Write the kept span trees as JSONL; returns the span count."""
        base = min((s[5] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, root, name, layer, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "root": root,
                    "name": name, "layer": layer,
                    "start_us": round((t0 - base) * 1e6, 3),
                    "end_us": round((t1 - base) * 1e6, 3)}) + "\n")
        return len(self.spans)


def installed_shims() -> List[str]:
    """Boundaries that currently carry a shim (empty = clean)."""
    boundaries = ([(c, a) for c, a, _ in _BOUNDARIES + _OWNED]
                  + list(_DISPATCH)
                  + [(TraceBus, "emit"), (Simulator, "cancel")])
    return [f"{cls.__name__}.{attr}" for cls, attr in boundaries
            if getattr(getattr(cls, attr), "__name__", "") == "shim"]
