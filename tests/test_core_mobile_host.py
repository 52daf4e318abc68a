"""Tests for the MH endpoint: join, deliver, handoff, leave, gap fill."""

import pytest

from repro.core.config import ProtocolConfig
from repro.core.datastructures import MessageQueue
from repro.core.mobile_host import MobileHost
from repro.experiments import registry
from repro.experiments.runner import run_point

from helpers import run_with_traffic, small_net, spec_path


def test_join_receives_join_ack_and_membership():
    sim, net = small_net(mhs_per_ap=0)
    net.start()
    mh = net.add_mobile_host("mh:x", "ap:0.0.0")
    sim.run(until=500)
    assert mh.is_member


def test_late_joiner_starts_after_join_point():
    sim, net = small_net(mhs_per_ap=1)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=2_000)
    late = net.add_mobile_host("mh:late", "ap:0.0.0")
    sim.run(until=5_000)
    seqs = late.delivered_seqs()
    assert seqs, "late joiner never delivered"
    assert seqs[0] > 0  # does not replay history from seq 0
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_handoff_preserves_continuity():
    sim, net = small_net(mhs_per_ap=1)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.schedule_at(1_500, lambda: net.handoff("mh:0.0.0.0", "ap:1.1.1"))
    sim.run(until=4_000)
    src.stop()
    sim.run(until=7_000)
    mover = net.mobile_hosts["mh:0.0.0.0"]
    assert mover.handoffs == 1
    seqs = mover.delivered_seqs()
    # No duplicates, no skips (zero tombstones expected on a warm path).
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
    assert mover.tombstones == 0
    # Delivered the same count as a non-moving peer.
    peer = net.mobile_hosts["mh:2.1.1.0"]
    assert abs(mover.delivered_count - peer.delivered_count) <= 1


def test_multiple_rapid_handoffs():
    sim, net = small_net(mhs_per_ap=1, seed=5)
    src = net.add_source(rate_per_sec=25)
    net.start()
    src.start()
    aps = ["ap:0.0.1", "ap:1.0.0", "ap:2.1.0", "ap:0.1.1"]
    for i, ap in enumerate(aps):
        sim.schedule_at(1_000 + 400 * i, net.handoff, "mh:0.0.0.0", ap)
    sim.run(until=5_000)
    src.stop()
    sim.run(until=9_000)
    mover = net.mobile_hosts["mh:0.0.0.0"]
    assert mover.handoffs == len(aps)
    seqs = mover.delivered_seqs()
    assert seqs == sorted(set(seqs))  # strict order, no dups


def test_leave_stops_app_delivery():
    sim, net = small_net(mhs_per_ap=1)
    src = net.add_source(rate_per_sec=20)
    net.start()
    src.start()
    sim.run(until=1_500)
    mh = net.member_hosts()[0]
    mh.leave()
    n = mh.delivered_count
    sim.run(until=4_000)
    assert mh.delivered_count <= n + 2


def test_mh_keeps_no_history():
    sim, net, _ = run_with_traffic(rate=30, until=4_000, check_order=False)
    for m in net.member_hosts():
        # Delivered messages are pruned immediately (resource constraint).
        assert m.mq.occupancy <= 5


def test_latency_recorded_per_delivery():
    sim, net, _ = run_with_traffic(rate=20, until=3_000, check_order=False)
    mh = net.member_hosts()[0]
    assert mh.app_log
    assert all(lat > 0 for _, _, lat in mh.app_log)


def test_handoff_after_long_detour_tombstones_unservable_range():
    # Tiny retention: after the MH is away long enough, the new AP cannot
    # serve the full catch-up range and the MH tombstones it (documented
    # best-effort behaviour).
    cfg = ProtocolConfig(mq_retention=4, smooth_handoff=False)
    sim, net = small_net(mhs_per_ap=1, cfg=cfg, seed=3)
    src = net.add_source(rate_per_sec=50)
    net.start()
    src.start()
    mh = net.mobile_hosts["mh:0.0.0.0"]

    def detach_quietly():
        # Simulate a long disconnection: detach without re-registering
        # (stamped with the live attachment epoch so the AP honors it).
        from repro.core.messages import Detach
        mh.chan.send(mh.ap, Detach(cfg.gid, mh.guid,
                                   epoch=mh._attach_epoch))
    sim.schedule_at(1_000, detach_quietly)
    sim.schedule_at(3_000, lambda: net.handoff("mh:0.0.0.0", "ap:1.0.0"))
    sim.run(until=6_000)
    src.stop()
    sim.run(until=10_000)
    assert mh.tombstones > 0
    # And delivery still proceeds after the tombstoned range.
    seqs = mh.delivered_seqs()
    assert seqs and seqs[-1] > 100


def test_stale_detach_cannot_cancel_newer_registration():
    """A retransmission-delayed Detach must not tear down a newer
    registration from the same MH (ping-pong inside the RTO window)."""
    from repro.core.messages import Detach

    sim, net = small_net(mhs_per_ap=1, seed=3)
    net.start()
    src = net.add_source(rate_per_sec=30)
    src.start()
    sim.run(until=500)

    mh = net.mobile_hosts["mh:0.0.0.0"]
    home, away = "ap:0.0.0", "ap:0.0.1"
    stale_epoch = mh._attach_epoch          # the attachment about to end
    net.handoff(mh.guid, away)              # Detach(home, stale_epoch)
    net.handoff(mh.guid, home)              # ... and straight back
    sim.run(until=1_000)
    assert net.nes[home].has_child(mh.guid)

    # The stale Detach finally lands (as a delayed retransmission would).
    net.nes[home]._ap_handle_detach(Detach(net.cfg.gid, mh.guid,
                                           epoch=stale_epoch))
    assert net.nes[home].has_child(mh.guid)  # newer registration survives
    before = mh.delivered_count
    sim.run(until=3_000)
    assert mh.delivered_count > before       # delivery never blacked out

    # A Detach for the *current* epoch is still honored (normal leave).
    net.nes[home]._ap_handle_detach(Detach(net.cfg.gid, mh.guid,
                                           epoch=mh._attach_epoch))
    assert not net.nes[home].has_child(mh.guid)


def test_late_register_cannot_resurrect_detached_attachment():
    """The mirror race: a handoff ping-pong A->B->A inside one RTT can
    deliver B's Register *after* the equal-epoch Detach; the register
    describes an attachment already torn down and must be ignored."""
    from repro.core.messages import Detach, HandoffRegister

    sim, net = small_net(mhs_per_ap=1, seed=4)
    net.start()
    sim.run(until=200)
    mh = net.mobile_hosts["mh:0.0.0.0"]
    other = net.nes["ap:0.0.1"]
    epoch = mh._attach_epoch + 1  # the epoch a handoff to `other` would mint

    # Detach for epoch N processed first (out-of-order arrival) ...
    other._ap_handle_detach(Detach(net.cfg.gid, mh.guid, epoch=epoch))
    # ... then the cancelled-but-already-on-the-wire Register lands.
    other._ap_handle_register(HandoffRegister(
        net.cfg.gid, mh.guid, max_delivered_seq=5, joining=False,
        epoch=epoch))
    assert not other.has_child(mh.guid)

    # A genuinely newer attachment (higher epoch) still registers fine.
    other._ap_handle_register(HandoffRegister(
        net.cfg.gid, mh.guid, max_delivered_seq=5, joining=False,
        epoch=epoch + 1))
    assert other.has_child(mh.guid)


# ---------------------------------------------------------------------------
# Handoff under loss: FINDINGS tables 2 and 3 as spec files (ROADMAP 2a)
# ---------------------------------------------------------------------------
WIRED_LOSS = spec_path("campus_wired_loss.json")
LOSS_BURST = spec_path("campus_loss_burst.json")


def _reseed_at_the_aps_base(self, msg):
    """The re-seed before 2a-i: at the AP's base, even when that is
    behind what the MH has already delivered."""
    if self.is_member:
        return
    self.is_member = True
    self.mq = MessageQueue(start_seq=msg.base_seq + 1)
    self.sim.trace.emit(self.now, "mh.member", mh=self.guid,
                        base=msg.base_seq)


def test_a_rejoin_never_redelivers_and_the_oracle_sees_it(monkeypatch):
    """At seed 85 ``mh:0.0.2.2`` delivers 337, leaves, and rejoins at an
    AP whose lossy wired hop has only reached 336.  The run is clean;
    re-seeding at the AP's base delivers 337 a second time, and the
    ``OrderChecker`` must say so."""
    spec = registry.resolve(WIRED_LOSS)
    assert spec.seed == 85
    assert run_point(spec, check=True).violations == []
    monkeypatch.setattr(MobileHost, "_handle_join_ack",
                        _reseed_at_the_aps_base)
    assert run_point(spec, check=True).violations == [
        "total_order: monotonicity: mh:0.0.2.2 delivered gseq 337 after 337"]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP 2a-ii: a registration whose retries run out inside a loss "
    "burst is never re-sent, so mh:2.0.1.0 ends the run attached to live "
    "AP ap:2.1.0 but registered nowhere (FINDINGS table 3)"))
def test_campus_loss_burst_at_seed_38_is_clean():
    spec = registry.resolve(LOSS_BURST, seed=38)
    assert run_point(spec, check=True).violations == []
