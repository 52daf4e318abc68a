"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments.runner import observed_scenario
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.net.message import Message
from repro.net.node import NetNode
from repro.net.transport import ReliableChannel
from repro.obs.spans import SpanCollector
from repro.shard.runtime import run_sharded
from repro.sim.engine import Simulator
from repro.sim.trace import StreamingTraceSink
from repro.validation.record import TraceRecorder

from helpers import golden_spec


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def fabric(sim: Simulator) -> Fabric:
    """A fabric with a permissive default link (tests may override)."""
    return Fabric(sim, default_spec=LinkSpec(latency=1.0))


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """``name -> run`` of the golden-horizon spec on the sequential
    engine, simulated once per session with three observers attached
    together: the in-memory recorder (``run.lines``), the streamed gzip
    sink (``run.stream_path``, ``run.streamed``: its record count) and
    a span collector (``run.events``).

    Observers are out of band, so the trace-identity and span suites
    assert on this one run instead of each simulating the registry.
    ``test_trace_identity.py`` keeps one golden recorded with no other
    observer attached.
    """
    runs = {}
    directory = tmp_path_factory.mktemp("golden-streams")

    def run(name: str):
        if name not in runs:
            path = str(directory / f"{name}.jsonl.gz")
            # A small window forces many flush boundaries in every run.
            sink = StreamingTraceSink(path, window=256)
            recorder, collector = TraceRecorder(), SpanCollector()
            try:
                with observed_scenario(golden_spec(name), recorder, sink,
                                       collector) as scenario:
                    scenario.run()
            finally:
                sink.close()
            runs[name] = SimpleNamespace(lines=recorder.lines,
                                         stream_path=path,
                                         streamed=sink.count,
                                         events=collector.events)
        return runs[name]

    return run


@pytest.fixture(scope="session")
def sharded_golden_run():
    """``(name, shards) -> ShardRunResult`` of the golden-horizon spec,
    recorded *and* span-collected, simulated once per session.

    ``record`` and ``spans`` compose by design (collectors are out of
    band), so the trace-identity and span-completeness suites assert on
    the same run instead of each simulating the full registry at 2 and
    4 shards.
    """
    runs = {}

    def run(name: str, shards: int):
        key = (name, shards)
        if key not in runs:
            runs[key] = run_sharded(golden_spec(name), shards,
                                    record=True, spans=True)
        return runs[key]

    return run


class Ping(Message):
    """Tiny payload message for transport-level tests."""

    __slots__ = ("n",)

    def __init__(self, n: int = 0):
        self.n = n


class Recorder(NetNode):
    """A node that records every raw message it receives."""

    def __init__(self, fabric: Fabric, node_id: str):
        super().__init__(fabric, node_id)
        self.received: list[Message] = []

    def on_message(self, msg: Message) -> None:
        self.received.append(msg)


class ReliableRecorder(NetNode):
    """A node with a reliable channel that records accepted payloads."""

    def __init__(self, fabric: Fabric, node_id: str, rto: float = 10.0,
                 max_retries: int = 5):
        super().__init__(fabric, node_id)
        self.gave_up: list = []
        self.acked: list = []
        self.chan = ReliableChannel(
            self, rto=rto, max_retries=max_retries,
            on_give_up=lambda dst, p: self.gave_up.append((dst, p)),
            on_ack=lambda dst, p: self.acked.append((dst, p)),
        )
        self.payloads: list[Message] = []

    def on_message(self, msg: Message) -> None:
        payload = self.chan.accept(msg)
        if payload is not None:
            self.payloads.append(payload)
