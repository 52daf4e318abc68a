"""Property-based fault injection: total order survives random faults.

Hypothesis draws small fault schedules (which NE to crash, when; which
MHs to hand off, where) and the protocol must keep every total-order
invariant over the surviving members.  This is the repo's broadest
correctness net: any state-machine interaction bug between ordering,
forwarding, delivery, gap recovery, token recovery, and topology
maintenance tends to surface here as an OrderChecker violation.
"""

from hypothesis import given, settings, strategies as st

from repro.core.protocol import RingNet
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier

SPEC = HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)


@st.composite
def fault_schedules(draw):
    """(crash victim index or None, crash time, handoff script)."""
    crash_idx = draw(st.one_of(st.none(), st.integers(0, 8)))
    crash_at = draw(st.floats(min_value=500.0, max_value=4_000.0))
    n_handoffs = draw(st.integers(0, 4))
    handoffs = [
        (draw(st.floats(min_value=300.0, max_value=5_000.0)),
         draw(st.integers(0, 11)),   # which MH
         draw(st.integers(0, 11)))   # which AP
        for _ in range(n_handoffs)
    ]
    return crash_idx, crash_at, handoffs


@given(schedule=fault_schedules(), seed=st.integers(0, 2**16))
@settings(max_examples=12, deadline=None)
def test_total_order_survives_random_faults(schedule, seed):
    crash_idx, crash_at, handoffs = schedule
    sim = Simulator(seed=seed)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)

    # Crash any NE except br:0 (the corresponding node keeps its source;
    # crashing it would just stop the workload, not stress recovery).
    crashables = [n for n in sorted(net.nes) if n != "br:0"]
    if crash_idx is not None:
        victim = crashables[crash_idx % len(crashables)]
        sim.schedule_at(crash_at, lambda v=victim: net.crash_ne(v))

    mhs = sorted(net.mobile_hosts)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    for at, mh_i, ap_i in handoffs:
        mh = mhs[mh_i % len(mhs)]
        ap = aps[ap_i % len(aps)]
        def do_handoff(mh=mh, ap=ap):
            # The target AP may have crashed already; skip if so.
            if ap in net.nes and net.nes[ap].alive:
                net.handoff(mh, ap)
        sim.schedule_at(at, do_handoff)

    net.start()
    src.start()
    sim.run(until=8_000)
    src.stop()
    sim.run(until=14_000)

    checker.assert_ok()
    # At least one member kept receiving through the chaos.
    counts = [m.delivered_count for m in net.member_hosts()]
    assert counts and max(counts) > 0


def test_ap_crash_then_handoff_restores_service():
    """A bottom-NE (AP) crash: the MH is stranded until it re-associates
    with a live AP, after which ordered delivery resumes with gap
    accounting intact."""
    sim = Simulator(seed=41)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=25)
    net.start()
    src.start()
    mh_id = "mh:0.0.0.0"
    sim.schedule_at(1_500, lambda: net.crash_ne("ap:0.0.0"))
    # Cell died; mobility re-associates the MH a little later.
    sim.schedule_at(2_200, lambda: net.handoff(mh_id, "ap:0.0.1"))
    sim.run(until=8_000)
    src.stop()
    sim.run(until=14_000)
    checker.assert_ok()
    mh = net.mobile_hosts[mh_id]
    assert mh.handoffs == 1
    # Everything either delivered or gap-accounted; service resumed.
    assert mh.delivered_count + mh.tombstones >= src.sent - 5
    assert mh.delivered_seqs()[-1] >= src.sent - 10


def test_ag_non_leader_crash_is_transparent_to_other_subtrees():
    sim = Simulator(seed=43)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=20)
    net.start()
    src.start()
    # ag:0.1 is a non-leader ring member with AP children.
    sim.schedule_at(2_000, lambda: net.crash_ne("ag:0.1"))
    sim.run(until=8_000)
    src.stop()
    sim.run(until=14_000)
    checker.assert_ok()
    # Members in untouched subtrees saw the entire stream.
    untouched = [m for g, m in net.mobile_hosts.items()
                 if g.startswith("mh:1") or g.startswith("mh:2")]
    assert all(m.delivered_count >= src.sent - 5 for m in untouched)


def test_double_crash_distinct_tiers():
    sim = Simulator(seed=47)
    net = RingNet.build(sim, SPEC)
    checker = OrderChecker(sim.trace)
    src = net.add_source(corresponding="br:0", rate_per_sec=15)
    net.start()
    src.start()
    sim.schedule_at(1_500, lambda: net.crash_ne("br:2"))
    sim.schedule_at(3_000, lambda: net.crash_ne("ag:1.0"))
    sim.run(until=10_000)
    src.stop()
    sim.run(until=16_000)
    checker.assert_ok()
    # The ring shrank but kept ordering the full stream.
    assert net.hierarchy.top_ring.size == 2
    best = max(m.delivered_count for m in net.member_hosts())
    assert best >= src.sent - 5
