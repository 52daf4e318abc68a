"""Fabric-level fault injection: overlay verdicts and driver plumbing."""

import pytest

from conftest import Ping, Recorder

from repro.experiments import registry
from repro.experiments.runner import build_scenario
from repro.faults.driver import FaultDriver, structural_home, subtree_nodes
from repro.faults.gilbert import GilbertElliott
from repro.faults.overlay import FaultOverlay, _BurstEntry
from repro.faults.plan import Flap
from repro.net.fabric import Fabric
from repro.net.link import LinkSpec
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams


FAST = LinkSpec(latency=1.0)


def _mesh(sim, names):
    fabric = Fabric(sim, default_spec=FAST)
    nodes = {n: Recorder(fabric, n) for n in names}
    return fabric, nodes


# ----------------------------------------------------------------------
# Partitions
# ----------------------------------------------------------------------
def test_partition_blocks_cross_group_only(sim):
    fabric, nodes = _mesh(sim, ["a1", "a2", "b1", "x"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_partition(0, (frozenset({"a1", "a2"}), frozenset({"b1"})),
                         "both")
    nodes["a1"].send("b1", Ping(1))   # cross: dropped
    nodes["b1"].send("a2", Ping(2))   # cross: dropped
    nodes["a1"].send("a2", Ping(3))   # intra: flows
    nodes["a1"].send("x", Ping(4))    # x in no group: unaffected
    nodes["x"].send("b1", Ping(5))    # unaffected
    sim.run()
    assert [m.n for m in nodes["b1"].received] == [5]
    assert [m.n for m in nodes["a2"].received] == [3]
    assert [m.n for m in nodes["x"].received] == [4]
    assert ov.drops_by_action == {0: 2}


def test_one_way_partition_drops_single_direction(sim):
    fabric, nodes = _mesh(sim, ["a", "b"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_partition(0, (frozenset({"a"}), frozenset({"b"})), "a_to_b")
    nodes["a"].send("b", Ping(1))  # dropped
    nodes["b"].send("a", Ping(2))  # flows
    sim.run()
    assert nodes["b"].received == []
    assert [m.n for m in nodes["a"].received] == [2]


def test_partition_heal_restores_traffic(sim):
    fabric, nodes = _mesh(sim, ["a", "b"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_partition(0, (frozenset({"a"}), frozenset({"b"})), "both")
    nodes["a"].send("b", Ping(1))
    ov.remove(0)
    assert not ov.active
    nodes["a"].send("b", Ping(2))
    sim.run()
    assert [m.n for m in nodes["b"].received] == [2]
    with pytest.raises(KeyError):
        ov.remove(0)


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------
def test_degrade_latency_factor_slows_matching_links(sim):
    fabric, nodes = _mesh(sim, ["a", "b", "c"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_degrade(0, [["a", "b"]], None, 4.0)
    nodes["a"].send("b", Ping(1))   # 1 ms * 4
    nodes["a"].send("c", Ping(2))   # unmatched: 1 ms
    arrivals = {}
    run_until = 10.0
    sim.run(until=run_until)
    # Arrival order proves the delay: c's message lands first.
    assert nodes["c"].received and nodes["b"].received
    assert nodes["b"].received[0].sent_at == 0.0
    # Re-measure precisely with fresh sends at a known time.
    t0 = sim.now
    nodes["a"].send("b", Ping(3))
    sim.run(until=t0 + 3.9)
    assert len(nodes["b"].received) == 1     # 4 ms not yet elapsed
    sim.run(until=t0 + 4.1)
    assert len(nodes["b"].received) == 2


def test_degrade_loss_override_replaces_spec_loss(sim):
    fabric, nodes = _mesh(sim, ["a", "b"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_degrade(0, [["a", "b"]], 1.0, 1.0)  # certain loss
    for i in range(5):
        nodes["a"].send("b", Ping(i))
    sim.run()
    assert nodes["b"].received == []
    ov.remove(0)
    nodes["a"].send("b", Ping(9))
    sim.run()
    assert [m.n for m in nodes["b"].received] == [9]


# ----------------------------------------------------------------------
# Flapping
# ----------------------------------------------------------------------
def test_flap_drops_only_in_down_phase(sim):
    fabric, nodes = _mesh(sim, ["a", "b"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    flap = Flap(at_ms=0.0, until_ms=1_000.0, link=["a", "b"],
                period_ms=100.0, duty=0.5)
    ov.install_flap(0, flap)
    # Send one message every 10 ms; those sent in [0,50) of each period
    # pass, those in [50,100) drop.
    for k in range(20):
        sim.schedule_at(k * 10.0, nodes["a"].send, "b", Ping(k))
    sim.run()
    got = sorted(m.n for m in nodes["b"].received)
    assert got == [k for k in range(20) if (k * 10.0) % 100.0 < 50.0]


# ----------------------------------------------------------------------
# Correlated loss (overlay side; model properties live elsewhere)
# ----------------------------------------------------------------------
def test_burst_chain_is_per_sender(sim):
    """Interleaving another sender must not change a sender's draws."""
    def drop_pattern(extra_sender: bool):
        s = Simulator(seed=99)
        fabric, nodes = _mesh(s, ["a", "b", "sink"])
        ov = FaultOverlay(s)
        fabric.fault_overlay = ov
        ov.install_burst(0, _BurstEntry([["*", "sink"]],
                                        p_gb=0.3, p_bg=0.3,
                                        loss_good=0.1, loss_bad=0.9))
        for i in range(200):
            nodes["a"].send("sink", Ping(i))
            if extra_sender:
                nodes["b"].send("sink", Ping(1000 + i))
        s.run()
        # Same-timestamp arrival *order* legitimately depends on causal
        # keys; the drop *decisions* (which transmissions survive) are
        # the per-sender-determinism claim.
        return sorted(m.n for m in nodes["sink"].received if m.n < 1000)

    assert drop_pattern(False) == drop_pattern(True)


def test_a_fault_change_reaches_a_warm_pair(sim):
    """The fabric keeps each pair's verdict on the sender's record; every
    install and remove must reach a pair whose verdict is already warm,
    and a burst installed mid-run steps the sender's existing
    ``fault.ge.<src>`` reader, not a fresh one."""
    fabric, nodes = _mesh(sim, ["a", "b", "c", "d"])
    ov = FaultOverlay(sim)
    fabric.fault_overlay = ov
    ov.install_degrade(0, [["c", "d"]], 0.5, 1.0)   # active, not on a-b
    n = iter(range(10_000))

    def sent_and_arrived(count=1):
        """Send ``count`` pings a -> b now; which of them arrive."""
        ks = [next(n) for _ in range(count)]
        for k in ks:
            nodes["a"].send("b", Ping(k))
        sim.run()
        got = {m.n for m in nodes["b"].received}
        return [k in got for k in ks]

    assert sent_and_arrived() == [True]             # a -> b: warm, clean
    ov.install_degrade(1, [["a", "b"]], 1.0, 1.0)
    assert sent_and_arrived() == [False]
    ov.remove(1)
    assert sent_and_arrived() == [True]

    # Replay the sender's Gilbert–Elliott draws on a twin of its stream.
    params = dict(p_gb=0.4, p_bg=0.4, loss_good=0.2, loss_bad=0.8)
    twin = RandomStreams(sim.streams.master_seed).get("fault.ge.a")

    def expected(steps):
        chain = GilbertElliott(**params)
        return [not chain.step(twin) for _ in range(steps)]

    ov.install_burst(2, _BurstEntry([["a", "b"]], **params))
    assert sent_and_arrived(40) == expected(40)
    ov.remove(2)
    assert sent_and_arrived(3) == [True] * 3
    t = sim.now + 5.0
    sim.schedule_at(t, ov.install_burst, 3,
                    _BurstEntry([["a", "b"]], **params))
    sim.run(until=t + 1.0)                          # installed mid-run
    assert sent_and_arrived(40) == expected(40)


# ----------------------------------------------------------------------
# Driver: resolution, trace records, expiry
# ----------------------------------------------------------------------
def test_structural_home_convention():
    assert structural_home("mh:0.1.0.3") == "ap:0.1.0"
    assert structural_home("mh:0.0.1.2.0.1") == "ap:0.0.1.2.0"
    assert structural_home("churn-mh:4") is None
    assert structural_home("br:0") is None


@pytest.mark.xfail(strict=True, reason=(
    "no BR holds the token at t=3000.0 in failure_drill: token_holder "
    "falls back to the top ring's last member (br:3), so the drill "
    "crashes a BR the token is travelling to, not its holder"))
def test_failure_drill_crashes_the_token_holder(monkeypatch):
    import repro.faults.driver as driver
    resolve = driver.token_holder
    resolved = []

    def spy(sim, net):
        target = resolve(sim, net)
        resolved.append((sim.now, target,
                         net.nes[target].held_token is not None))
        return target

    monkeypatch.setattr(driver, "token_holder", spy)
    scenario = build_scenario(registry.get("failure_drill"))
    scenario.run(until=3_001.0)
    assert [(t, held) for t, _, held in resolved] == [(3_000.0, True)], \
        resolved


def test_split_brain_resolves_token_holder_subtree():
    spec = registry.get("split_brain")
    scenario = build_scenario(spec)
    records = []
    scenario.sim.trace.subscribe("fault.partition",
                                 lambda r: records.append(r))
    scenario.run(until=1_100.0)  # past activation, before heal
    ov = scenario.net.fabric.fault_overlay
    assert records and records[0]["heal_at"] == 1_250.0
    groups, direction = ov._partitions[0]
    assert direction == "both"
    # The isolated group is one BR's whole subtree: its BR, both AGs,
    # all four APs, their MHs, and any source feeding that BR.
    iso = groups[0]
    brs = sorted(n for n in iso if n.startswith("br:"))
    assert len(brs) == 1
    b = brs[0].split(":")[1]
    assert all(n.split(":")[1].startswith(b) for n in iso
               if n.split(":")[0] in ("ag", "ap", "mh"))
    assert sum(1 for n in iso if n.startswith("ag:")) == 2
    assert sum(1 for n in iso if n.startswith("ap:")) == 4
    # The holder BR holds the token right now.
    holder = scenario.net.nes[brs[0]]
    # Note: the token moves on; at resolution time it was held here.
    # Instead assert via hierarchy: iso BR is a top-ring member.
    assert brs[0] in scenario.net.hierarchy.top_ring.members
    # Group 1 is @rest: disjoint, covers everything else.
    assert not (groups[0] & groups[1])
    assert groups[0] | groups[1] == set(scenario.net.fabric.nodes)


def test_driver_emits_records_and_expires_entries():
    spec = registry.get("rolling_ap_brownout")
    scenario = build_scenario(spec)
    seen = []
    for kind in ("fault.degrade", "fault.restore"):
        scenario.sim.trace.subscribe(
            kind, lambda r, k=kind: seen.append((k, r["index"])))
    scenario.run(until=2_300.0)  # past the last window
    assert [s for s in seen if s[0] == "fault.degrade"] == \
        [("fault.degrade", 0), ("fault.degrade", 1), ("fault.degrade", 2)]
    assert [s for s in seen if s[0] == "fault.restore"] == \
        [("fault.restore", 0), ("fault.restore", 1), ("fault.restore", 2)]
    ov = scenario.net.fabric.fault_overlay
    assert not ov.active  # everything expired


def test_driver_schedule_is_single_shot():
    spec = registry.get("split_brain")
    scenario = build_scenario(spec)
    with pytest.raises(RuntimeError, match="already scheduled"):
        scenario.faults.schedule()


def test_subtree_nodes_includes_sources_and_mhs():
    spec = registry.get("split_brain")
    scenario = build_scenario(spec)
    net = scenario.net
    root = net.hierarchy.top_ring.members[0]
    group = subtree_nodes(net, root)
    assert root in group
    # Sources feeding this BR belong to its side of the partition.
    for sid, src in net.sources.items():
        assert (sid in group) == (src.corresponding in group)


def test_two_drivers_on_one_fabric_get_disjoint_namespaces(sim):
    """A second plan on the same fabric must not clobber the first's
    entries (overlay indices are driver-namespaced)."""
    from repro.faults.plan import FaultPlan, Partition

    fabric, nodes = _mesh(sim, ["a", "b"])

    class NetStub:
        def __init__(self, fabric):
            self.fabric = fabric
            self.mobile_hosts = {}
            self.sources = {}

    net = NetStub(fabric)
    plan = FaultPlan(actions=[
        Partition(at_ms=1.0, heal_at_ms=5.0,
                  groups=[["a"], ["@rest"]])])
    d1 = FaultDriver(sim, net, plan)
    d2 = FaultDriver(sim, net, plan)
    d1.schedule()
    d2.schedule()
    healed = []
    sim.trace.subscribe("fault.heal", lambda r: healed.append(r["index"]))
    sim.run(until=10.0)
    # Both plans activated and healed under distinct indices; neither
    # heal raised, and the overlay is empty again.
    assert sorted(healed) == [0, 1]
    assert not fabric.fault_overlay.active


def test_empty_partition_group_fails_loudly(sim):
    from repro.faults.plan import FaultPlan, Partition

    fabric, nodes = _mesh(sim, ["a", "b"])

    class NetStub:
        def __init__(self, fabric):
            self.fabric = fabric
            self.mobile_hosts = {}
            self.sources = {}

    plan = FaultPlan(actions=[
        Partition(at_ms=1.0, groups=[["zz:9.*"], ["@rest"]])])
    driver = FaultDriver(sim, NetStub(fabric), plan)
    driver.schedule()
    with pytest.raises(ValueError, match="resolved to no fabric node"):
        sim.run(until=10.0)
