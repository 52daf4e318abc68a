"""Baseline conformance under churn + access-point failure.

Every comparator runs the same regime — join/leave churn plus a
mid-run serving-node failure — through the total-order checker and the
applicable validation monitors, and each test asserts which invariants
that baseline is *expected* to violate.  This documents the paper's
comparison claims as executable facts:

==============  =====================================================
unordered       violates **agreement** and **monotonicity**: per-source
                sequence numbers collide across sources, so there is no
                total order at all (Remark 3's trade-off).
single_ring     violates **nothing**: it composes the full RingNet
                ordering/recovery stack over one big ring — same
                guarantees, worse scaling (the E6 comparison is about
                cost, not correctness).
hostview        violates **no order invariant** with its single sender
                (per-sender seq is trivially total); its documented
                weakness is buffer growth and handoff service breaks,
                not ordering.
relm            violates **monotonicity** and **gap accounting**: SH
                catch-up replays windows out of order after handoffs
                and drops ranges on failure, with no endpoint
                resequencing.
sequencer       violates **monotonicity** and **gap accounting** on a
                lossy access hop: order is assigned centrally but MHs
                deliver on arrival, so a retransmitted segment arriving
                late reorders the application stream — ordering needs
                endpoint resequencing, not just assignment (what
                RingNet's MQ provides).
==============  =====================================================
"""

import pytest

from repro.baselines.hostview import HostViewProtocol
from repro.baselines.relm import RelMProtocol
from repro.baselines.sequencer import SequencerMulticast
from repro.baselines.single_ring import SingleRingMulticast
from repro.baselines.unordered import UnorderedRingNet
from repro.faults import Crash, FaultDriver, FaultPlan
from repro.metrics.order_checker import OrderChecker
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape
from repro.topology.tiers import Tier
from repro.validation.monitor import MonitorSuite
from repro.validation.monitors import (MembershipMonitor, RecoveryMonitor,
                                       TokenMonitor)
from repro.workloads.churn import ChurnDriver

SEED = 11
DURATION = 4_000.0
CRASH_AT = 1_500.0
CHURN_MS = 400.0


def _kinds(checker):
    """Violation-kind histogram, e.g. {'agreement': 10, 'gap': 3}."""
    out = {}
    for v in checker.violations:
        out[v.split(":")[0]] = out.get(v.split(":")[0], 0) + 1
    return out


def _schedule_crash(sim, net, target):
    FaultDriver(sim, net, FaultPlan([Crash(at_ms=CRASH_AT,
                                           target=target)])).schedule()


def _finish(suite, net, sim):
    suite.finish(net=net, end_time=sim.now)
    suite.detach()


# ---------------------------------------------------------------------------
# unordered: no total order, by design
# ---------------------------------------------------------------------------
def test_unordered_violates_agreement_and_monotonicity():
    sim = Simulator(seed=SEED)
    checker = OrderChecker(sim.trace)
    suite = MonitorSuite([MembershipMonitor(),
                          RecoveryMonitor()]).attach(sim.trace)
    net = UnorderedRingNet.build(
        sim, HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1))
    sources = [net.add_source(rate_per_sec=15) for _ in range(2)]
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    churn = ChurnDriver(net, aps, mean_interval_ms=CHURN_MS)
    for s in sources:
        s.start()
    churn.start()
    _schedule_crash(sim, net, "ap:0.0.0")
    sim.run(until=DURATION)
    _finish(suite, net, sim)

    kinds = _kinds(checker)
    # Two sources' per-source sequences collide: no agreement, and the
    # interleaving breaks per-receiver monotonicity.
    assert kinds.get("agreement", 0) > 0
    assert kinds.get("monotonicity", 0) > 0
    # Membership bookkeeping itself stays consistent.
    assert suite.all_violations() == []


# ---------------------------------------------------------------------------
# single_ring: full correctness, different (worse-scaling) topology
# ---------------------------------------------------------------------------
def test_single_ring_violates_nothing_under_churn_and_crash():
    sim = Simulator(seed=SEED)
    checker = OrderChecker(sim.trace)
    suite = MonitorSuite([TokenMonitor(), MembershipMonitor(),
                          RecoveryMonitor()]).attach(sim.trace)
    net = SingleRingMulticast.build_ring(sim, n_bs=6, mhs_per_bs=1)
    sources = [net.add_source(rate_per_sec=15) for _ in range(2)]
    churn = ChurnDriver(net, net.base_stations, mean_interval_ms=CHURN_MS)
    net.start()
    for s in sources:
        s.start()
    churn.start()
    sim.schedule_at(CRASH_AT, net.crash_ne, "bs:3")
    sim.run(until=DURATION)
    _finish(suite, net, sim)

    checker.assert_ok()
    assert suite.all_violations() == []
    assert suite.get("token").holds > 0  # the ring kept rotating


# ---------------------------------------------------------------------------
# hostview: single-sender order holds; weaknesses are elsewhere
# ---------------------------------------------------------------------------
def test_hostview_order_holds_with_single_sender():
    sim = Simulator(seed=SEED)
    checker = OrderChecker(sim.trace, check_validity=False)
    suite = MonitorSuite([MembershipMonitor(),
                          RecoveryMonitor()]).attach(sim.trace)
    hv = HostViewProtocol(sim, n_mss=4, rate_per_sec=20)
    msss = [f"mss:{i}" for i in range(4)]
    for i, mss in enumerate(msss):
        hv.add_mobile_host(f"mh:{i}", mss)
    churn = ChurnDriver(hv, msss, mean_interval_ms=CHURN_MS)
    hv.sender.start()
    churn.start()
    _schedule_crash(sim, hv, "mss:1")
    sim.run(until=DURATION)
    _finish(suite, hv, sim)

    checker.assert_ok()
    assert suite.all_violations() == []


# ---------------------------------------------------------------------------
# relm: catch-up replay reorders; failures drop ranges silently
# ---------------------------------------------------------------------------
def test_relm_violates_monotonicity_and_gap_accounting():
    sim = Simulator(seed=SEED)
    checker = OrderChecker(sim.trace, check_validity=False)
    suite = MonitorSuite([MembershipMonitor(),
                          RecoveryMonitor()]).attach(sim.trace)
    relm = RelMProtocol(sim, n_regions=2, msss_per_region=2, rate_per_sec=20)
    msss = list(relm.msss)
    for i, mss in enumerate(msss):
        relm.add_mobile_host(f"mh:{i}", mss)
    churn = ChurnDriver(relm, msss, mean_interval_ms=CHURN_MS)
    relm.source.start()
    churn.start()

    def cross_region_handoff():
        members = relm.member_hosts()
        if members:
            relm.handoff(members[0].guid, msss[-1])

    sim.schedule_at(1_200.0, cross_region_handoff)
    _schedule_crash(sim, relm, msss[1])
    sim.run(until=DURATION)
    _finish(suite, relm, sim)

    kinds = _kinds(checker)
    assert kinds.get("monotonicity", 0) > 0   # SH window replayed late
    assert kinds.get("gap", 0) > 0            # dropped ranges, no tombstones
    assert kinds.get("agreement", 0) == 0     # single source: ids unique


# ---------------------------------------------------------------------------
# sequencer: central assignment without endpoint resequencing
# ---------------------------------------------------------------------------
def test_sequencer_assignment_alone_breaks_on_lossy_access_links():
    sim = Simulator(seed=SEED)
    checker = OrderChecker(sim.trace, check_validity=False)
    suite = MonitorSuite([MembershipMonitor(),
                          RecoveryMonitor()]).attach(sim.trace)
    seqm = SequencerMulticast(sim, n_aps=4)
    aps = [f"ap:{i}" for i in range(4)]
    for i, ap in enumerate(aps):
        seqm.add_mobile_host(f"mh:{i}", ap)
    sources = [seqm.add_source(rate_per_sec=15) for _ in range(2)]
    churn = ChurnDriver(seqm, aps, mean_interval_ms=CHURN_MS)
    for s in sources:
        s.start()
    churn.start()
    _schedule_crash(sim, seqm, "ap:1")
    sim.run(until=DURATION)
    _finish(suite, seqm, sim)

    kinds = _kinds(checker)
    # Global sequence numbers are unique (the sequencer is consistent) …
    assert kinds.get("agreement", 0) == 0
    # … but on a 2%-loss access hop, deliver-on-arrival reorders and
    # silently skips: ordering needs endpoint resequencing too.
    assert kinds.get("monotonicity", 0) > 0
    assert kinds.get("gap", 0) > 0
    assert suite.all_violations() == []


# ---------------------------------------------------------------------------
# The comparison in one table: RingNet itself passes the same regime
# ---------------------------------------------------------------------------
def test_ringnet_same_regime_is_clean():
    from repro.experiments.spec import (ChurnSpec, ExperimentSpec,
                                        HierarchyShape, WorkloadSpec)
    from repro.experiments.runner import run_point

    spec = ExperimentSpec(
        name="baseline-regime",
        hierarchy=HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2,
                                 mhs_per_ap=1),
        workload=WorkloadSpec(s=2, rate_per_sec=15.0),
        churn=ChurnSpec(enabled=True, mean_interval_ms=CHURN_MS),
        faults=FaultPlan([Crash(at_ms=CRASH_AT, target="ap:0.0.0")]),
        duration_ms=DURATION, warmup_ms=0.0, seed=SEED,
    )
    result = run_point(spec, check=True)
    assert result.violations == []
    assert result.delivered > 0
