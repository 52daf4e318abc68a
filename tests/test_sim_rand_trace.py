"""Unit tests for random streams and the trace bus."""

from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceBus, TraceRecord


# ---------------------------------------------------------------------------
# RandomStreams
# ---------------------------------------------------------------------------
def test_same_seed_same_stream():
    a, b = RandomStreams(7), RandomStreams(7)
    assert list(a.get("x").integers(0, 100, 5)) == list(b.get("x").integers(0, 100, 5))


def test_different_seeds_differ():
    a, b = RandomStreams(7), RandomStreams(8)
    assert list(a.get("x").integers(0, 1000, 8)) != list(b.get("x").integers(0, 1000, 8))


def test_streams_independent_of_creation_order():
    a = RandomStreams(7)
    b = RandomStreams(7)
    a.get("first")
    first_then = a.get("second").random()
    only = b.get("second").random()
    assert first_then == only


def test_get_returns_same_generator():
    s = RandomStreams(1)
    assert s.get("x") is s.get("x")


def test_reset_recreates_streams():
    s = RandomStreams(1)
    v1 = s.get("x").random()
    s.reset()
    v2 = s.get("x").random()
    assert v1 == v2  # same seed path replays


def test_names_and_contains():
    s = RandomStreams(1)
    s.get("b")
    s.get("a")
    assert s.names() == ["a", "b"]
    assert "a" in s and "zzz" not in s


# ---------------------------------------------------------------------------
# TraceBus
# ---------------------------------------------------------------------------
def test_emit_without_subscribers_is_cheap():
    bus = TraceBus()
    bus.emit(1.0, "x", a=1)
    assert bus.counts["x"] == 1


def test_subscribe_by_kind():
    bus = TraceBus()
    got = []
    bus.subscribe("deliver", got.append)
    bus.emit(1.0, "deliver", mh="m1")
    bus.emit(2.0, "other")
    assert len(got) == 1
    assert got[0].time == 1.0
    assert got[0]["mh"] == "m1"


def test_subscribe_all_kinds():
    bus = TraceBus()
    got = []
    bus.subscribe(None, got.append)
    bus.emit(1.0, "a")
    bus.emit(2.0, "b")
    assert [r.kind for r in got] == ["a", "b"]


def test_unsubscribe():
    bus = TraceBus()
    got = []
    bus.subscribe("a", got.append)
    bus.unsubscribe("a", got.append)
    bus.emit(1.0, "a")
    assert got == []


def test_record_get_default():
    rec = TraceRecord(1.0, "k", {"x": 5})
    assert rec.get("x") == 5
    assert rec.get("missing", "d") == "d"


def test_multiple_subscribers_same_kind():
    bus = TraceBus()
    a, b = [], []
    bus.subscribe("k", a.append)
    bus.subscribe("k", b.append)
    bus.emit(1.0, "k")
    assert len(a) == 1 and len(b) == 1


def test_subscription_context_manager_detaches():
    bus = TraceBus()
    got = []
    with bus.subscription("k", got.append):
        bus.emit(1.0, "k")
    bus.emit(2.0, "k")
    assert len(got) == 1
    assert bus.subscriber_count == 0


def test_subscription_detaches_on_error():
    bus = TraceBus()
    got = []
    try:
        with bus.subscription(None, got.append):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert bus.subscriber_count == 0


def test_no_subscriber_leak_across_repeated_runs():
    """Regression: monitors/collectors must not accumulate across runs.

    Before scoped subscriptions, every run that attached observers to a
    shared bus leaked them; the fast no-subscriber emit path was then
    lost forever and callbacks fired into dead objects.
    """
    bus = TraceBus()
    for _ in range(50):
        got = []
        # The same callback on both its kind and the wildcard is deduped:
        # one record, one call.
        with bus.subscription("mh.deliver", got.append), \
                bus.subscription(None, got.append):
            bus.emit(1.0, "mh.deliver", mh="m")
        assert len(got) == 1
    assert bus.subscriber_count == 0
    # The empty-list cleanup restores the cheap fast path entirely.
    assert bus._subs_by_kind == {} and bus._subs_all == []


def test_monitor_suite_leaves_no_subscribers_across_runs():
    from repro.validation.suite import standard_suite
    bus = TraceBus()
    for _ in range(10):
        suite = standard_suite("ringnet")
        suite.attach(bus)
        bus.emit(1.0, "mh.join", mh="m", ap="a")
        suite.detach()
    assert bus.subscriber_count == 0


def test_counting_disabled_skips_counts_entirely():
    bus = TraceBus(counting=False)
    bus.emit(1.0, "x", a=1)
    got = []
    with bus.subscription("x", got.append):
        bus.emit(2.0, "x", a=2)
    assert bus.counts == {}          # no bookkeeping at all
    assert len(got) == 1             # dispatch unaffected


def test_dual_subscription_dedupes_dispatch():
    """A subscriber on both its kind and the wildcard sees each record
    exactly once; distinct subscribers are unaffected."""
    bus = TraceBus()
    both, wild_only, kind_only = [], [], []
    bus.subscribe("x", both.append)
    bus.subscribe(None, both.append)
    bus.subscribe(None, wild_only.append)
    bus.subscribe("x", kind_only.append)
    bus.emit(1.0, "x", a=1)
    bus.emit(2.0, "y", a=2)
    assert [r.kind for r in both] == ["x", "y"]
    assert [r.kind for r in wild_only] == ["x", "y"]
    assert [r.kind for r in kind_only] == ["x"]


def test_dispatch_rebuilt_after_unsubscribe():
    bus = TraceBus()
    got = []
    bus.subscribe("x", got.append)
    bus.emit(1.0, "x")
    bus.unsubscribe("x", got.append)
    bus.emit(2.0, "x")
    assert len(got) == 1
    assert bus._subs_by_kind == {}   # fast path fully restored
