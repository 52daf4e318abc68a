"""Tests for fault-plan link cuts and crashes, and Multiple-Token
quiescence units."""

from types import SimpleNamespace

from repro.core.messages import TokenAnnounce, TokenPass
from repro.core.token import OrderingToken
from repro.faults import Crash, FaultDriver, FaultPlan, Partition
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec

from conftest import Ping, Recorder
from helpers import small_net


def run_plan(sim, fabric, *actions):
    """Arm ``actions`` against a bare fabric (a net without ``crash_ne``)."""
    FaultDriver(sim, SimpleNamespace(fabric=fabric),
                FaultPlan(list(actions))).schedule()


# ---------------------------------------------------------------------------
# Fault plans on a bare fabric
# ---------------------------------------------------------------------------
def test_link_down_up(sim):
    fabric = Fabric(sim)
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    fabric.connect("a", "b", LinkSpec(latency=1.0))
    run_plan(sim, fabric, Partition(at_ms=0.0, heal_at_ms=10.0,
                                    groups=[["a"], ["b"]]))
    sim.schedule_at(1.0, a.send, "b", Ping())
    sim.run(until=10)
    assert b.received == []
    a.send("b", Ping())
    sim.run(until=20)
    assert len(b.received) == 1


def test_partition_and_heal(sim):
    fabric = Fabric(sim)
    nodes = {n: Recorder(fabric, n) for n in ("a", "b", "c", "d")}
    for x, y in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        fabric.connect(x, y, LinkSpec(latency=1.0))
    run_plan(sim, fabric, Partition(at_ms=0.0, heal_at_ms=10.0,
                                    groups=[["a", "b"], ["c", "d"]]))
    # Intra-group link still up, cross links down.
    sim.schedule_at(1.0, nodes["a"].send, "b", Ping())
    sim.schedule_at(1.0, nodes["a"].send, "c", Ping())
    sim.run(until=10)
    assert len(nodes["b"].received) == 1
    assert nodes["c"].received == []
    nodes["a"].send("c", Ping())
    sim.run(until=20)
    assert len(nodes["c"].received) == 1


def test_scheduled_faults(sim):
    fabric = Fabric(sim, default_spec=LinkSpec(latency=1.0))
    a = Recorder(fabric, "a")
    b = Recorder(fabric, "b")
    crashes = []
    sim.trace.subscribe("fault.crash", crashes.append)
    run_plan(sim, fabric, Crash(at_ms=5.0, target="b"))
    sim.schedule_at(6.0, a.send, "b", Ping())
    sim.run(until=20)
    assert not b.alive and b.received == []
    assert [(r.time, r["node"]) for r in crashes] == [(5.0, "b")]


# ---------------------------------------------------------------------------
# Quiescence / Multiple-Token units
# ---------------------------------------------------------------------------
def test_quiescing_holder_passes_without_assigning():
    sim, net = small_net()
    src = net.add_source(corresponding="br:0", rate_per_sec=50)
    net.start()
    src.start()
    sim.run(until=500)
    ne = net.nes["br:0"]
    ordered_before = ne.new_token.next_global_seq
    # Enter quiescence on every top node.
    for top in net.top_ring_nes():
        top.quiesce_until = sim.now + 200.0
    sim.run(until=sim.now + 150.0)
    # The token kept circulating but minted nothing new.
    max_next = max(t.held_token.next_global_seq
                   for t in net.top_ring_nes() if t.held_token) if any(
        t.held_token for t in net.top_ring_nes()) else ordered_before
    assert max_next <= ordered_before + 1
    # After quiescence, ordering resumes.
    sim.run(until=sim.now + 2_000.0)
    assert any((t.new_token.next_global_seq if t.new_token else 0) >
               ordered_before + 10 for t in net.top_ring_nes())


def test_foreign_token_while_live_triggers_self_detection():
    sim, net = small_net(n_br=4)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=1_000)
    ne = net.nes["br:1"]
    assert not ne.quiescing
    # Inject a second (stale) token with a different identity.
    stale = OrderingToken(gid=net.cfg.gid, next_global_seq=1,
                          token_id=(99, "ghost"))
    ne.handle_token(TokenPass(stale))
    assert ne.quiescing  # self-detected the coexistence
    sim.run(until=sim.now + 3_000.0)
    # Resolution killed the lesser (stale) lineage.
    assert (99, "ghost") in ne.killed_token_ids


def test_announce_kills_lower_token():
    sim, net = small_net(n_br=3)
    net.start()
    sim.run(until=200)
    ne = net.nes["br:1"]
    ne.signal_multiple_token()  # opens a resolution round
    ne.handle_token_announce(TokenAnnounce(
        net.cfg.gid, "br:2", (1, "br:2"), next_global_seq=100, hops_left=3))
    ne.handle_token_announce(TokenAnnounce(
        net.cfg.gid, "br:0", (1, "br:0"), next_global_seq=5, hops_left=3))
    assert (1, "br:0") in ne.killed_token_ids
    assert (1, "br:2") not in ne.killed_token_ids
