"""Tests for the five comparator protocols."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.common import PlainDeliver
from repro.baselines.hostview import HostViewProtocol
from repro.baselines.relm import RelMProtocol
from repro.baselines.sequencer import SequencerMulticast
from repro.baselines.single_ring import SingleRingMulticast
from repro.baselines.unordered import UnorderedRingNet
from repro.metrics.collectors import LatencyCollector
from repro.net.transport import ReliableChannel
from repro.sim.engine import Simulator
from repro.topology.builder import HierarchyShape


SPEC = HierarchyShape(n_br=3, ags_per_br=2, aps_per_ag=2, mhs_per_ap=1)


# ---------------------------------------------------------------------------
# Unordered RingNet (Remark 3 ablation)
# ---------------------------------------------------------------------------
def test_unordered_delivers_everything():
    sim = Simulator(seed=3)
    net = UnorderedRingNet.build(sim, SPEC)
    src = net.add_source(rate_per_sec=20)
    src.start()
    sim.run(until=4_000)
    src.stop()
    sim.run(until=8_000)
    for m in net.member_hosts():
        assert m.delivered_count == src.sent


def test_unordered_no_duplicates():
    sim = Simulator(seed=3)
    net = UnorderedRingNet.build(sim, SPEC)
    src = net.add_source(rate_per_sec=30)
    src.start()
    sim.run(until=3_000)
    for m in net.member_hosts():
        keys = [(p[1][0], p[1][1]) for p in m.app_log]
        assert len(keys) == len(set(keys))


def test_unordered_multi_source():
    sim = Simulator(seed=4)
    net = UnorderedRingNet.build(sim, SPEC)
    srcs = [net.add_source(rate_per_sec=10) for _ in range(3)]
    for s in srcs:
        s.start()
    sim.run(until=3_000)
    for s in srcs:
        s.stop()
    sim.run(until=6_000)
    total = sum(s.sent for s in srcs)
    for m in net.member_hosts():
        assert m.delivered_count == total


def test_unordered_dedup_state_stays_per_source():
    sim = Simulator(seed=4)
    net = UnorderedRingNet.build(sim, SPEC)
    srcs = [net.add_source(rate_per_sec=20) for _ in range(3)]
    for s in srcs:
        s.start()
    sim.run(until=3_000)
    for s in srcs:
        s.stop()
    sim.run(until=6_000)
    sent = {s.id: s.sent for s in srcs}
    for ne in net.nes.values():
        # One floor per source and nothing held above it: O(sources),
        # not one entry per message.
        assert {src: seen[0] for src, seen in ne._seen.items()} == sent
        assert not any(seen[1] for seen in ne._seen.values())


def test_unordered_handoff_reattaches():
    sim = Simulator(seed=3)
    net = UnorderedRingNet.build(sim, SPEC)
    src = net.add_source(rate_per_sec=20)
    src.start()
    sim.schedule_at(1_000, lambda: net.handoff("mh:0.0.0.0", "ap:1.1.1"))
    sim.run(until=3_000)
    mover = net.mobile_hosts["mh:0.0.0.0"]
    assert mover.handoffs == 1
    before = mover.delivered_count
    sim.run(until=5_000)
    assert mover.delivered_count > before  # keeps receiving at the new AP


def test_unordered_is_faster_than_ordered():
    """Remark 3 in miniature: same hierarchy, lower latency unordered."""
    from repro.core.protocol import RingNet
    sim_o = Simulator(seed=5)
    ordered = RingNet.build(sim_o, SPEC)
    lat_o = LatencyCollector(sim_o.trace, warmup=1_000)
    s = ordered.add_source(rate_per_sec=20)
    ordered.start()
    s.start()
    sim_o.run(until=5_000)

    sim_u = Simulator(seed=5)
    unordered = UnorderedRingNet.build(sim_u, SPEC)
    lat_u = LatencyCollector(sim_u.trace, warmup=1_000)
    s2 = unordered.add_source(rate_per_sec=20)
    s2.start()
    sim_u.run(until=5_000)

    assert lat_u.summary()["mean"] < lat_o.summary()["mean"]


# ---------------------------------------------------------------------------
# Single big ring [16]
# ---------------------------------------------------------------------------
def test_single_ring_total_order():
    from repro.metrics.order_checker import OrderChecker
    sim = Simulator(seed=6)
    ring = SingleRingMulticast.build_ring(sim, n_bs=6, mhs_per_bs=1)
    checker = OrderChecker(sim.trace)
    src = ring.add_source(corresponding="bs:0", rate_per_sec=20)
    ring.start()
    src.start()
    sim.run(until=5_000)
    checker.assert_ok()
    assert checker.deliveries_checked > 0


def test_single_ring_latency_grows_with_size():
    means = []
    for n in (4, 16):
        sim = Simulator(seed=7)
        ring = SingleRingMulticast.build_ring(sim, n_bs=n, mhs_per_bs=1)
        lat = LatencyCollector(sim.trace, warmup=1_000)
        src = ring.add_source(corresponding="bs:0", rate_per_sec=10)
        ring.start()
        src.start()
        sim.run(until=6_000)
        means.append(lat.summary()["mean"])
    assert means[1] > means[0] * 1.5  # strongly super-linear gap


def test_single_ring_minimum_size():
    with pytest.raises(ValueError):
        SingleRingMulticast.build_ring(Simulator(), n_bs=0)


def test_single_ring_peak_buffers_reported():
    sim = Simulator(seed=6)
    ring = SingleRingMulticast.build_ring(sim, n_bs=4, mhs_per_bs=1)
    src = ring.add_source(corresponding="bs:0", rate_per_sec=20)
    ring.start()
    src.start()
    sim.run(until=3_000)
    peaks = ring.ring_peak_buffers()
    assert peaks["wq_peak"] >= 0 and peaks["mq_peak"] > 0


# ---------------------------------------------------------------------------
# Host-View [1]
# ---------------------------------------------------------------------------
def test_hostview_delivers_to_view_members():
    sim = Simulator(seed=8)
    hv = HostViewProtocol(sim, n_mss=4, rate_per_sec=20)
    for i in range(4):
        hv.add_mobile_host(f"mh:{i}", f"mss:{i}")
    hv.sender.start()
    sim.run(until=4_000)
    for m in hv.member_hosts():
        assert m.delivered_count > 0


def test_hostview_global_update_cost():
    sim = Simulator(seed=8)
    hv = HostViewProtocol(sim, n_mss=8, rate_per_sec=5, update_latency=50.0)
    for i in range(8):
        hv.add_mobile_host(f"mh:{i}", f"mss:{i}")
    hv.sender.start()
    sim.run(until=2_000)
    # Every join triggered a global update: control cost grows ~ O(view²).
    assert hv.sender.control_messages >= 8
    assert len(hv.sender.view) == 8


def test_hostview_handoff_to_unviewed_mss_interrupts():
    sim = Simulator(seed=8)
    hv = HostViewProtocol(sim, n_mss=3, rate_per_sec=20, update_latency=200.0)
    hv.add_mobile_host("mh:0", "mss:0")
    hv.sender.start()
    sim.run(until=2_000)
    n_before = hv.mobile_hosts["mh:0"].delivered_count
    hv.handoff("mh:0", "mss:2")  # mss:2 not in the view yet
    sim.run(until=2_150)  # shorter than update latency
    n_during = hv.mobile_hosts["mh:0"].delivered_count
    assert n_during <= n_before + 1  # break in service
    sim.run(until=4_000)
    assert hv.mobile_hosts["mh:0"].delivered_count > n_during  # resumed


def test_hostview_mss_leaves_the_view_with_its_last_member(monkeypatch):
    sent = []
    send = ReliableChannel.send

    def spy(chan, dst, payload):
        if isinstance(payload, PlainDeliver):
            sent.append((chan.node.id, dst, sim.now))
        return send(chan, dst, payload)

    monkeypatch.setattr(ReliableChannel, "send", spy)
    sim = Simulator(seed=8)
    hv = HostViewProtocol(sim, n_mss=3, rate_per_sec=20, update_latency=50.0)
    hv.add_mobile_host("mh:0", "mss:0")
    hv.add_mobile_host("mh:1", "mss:1")
    hv.sender.start()
    sim.run(until=1_000)
    assert hv.sender.control_messages == 1 + 2      # two joins
    hv.handoff("mh:1", "mss:0")                     # mss:1 is left empty
    sim.run(until=1_500)
    assert list(hv.sender.view) == ["mss:0"]
    assert hv.sender.control_messages == 1 + 2 + 1  # the leave
    assert not any(dst == "mss:1" for src, dst, t in sent
                   if src == hv.sender.id and t > 1_100.0)
    assert not any("mss:1" in owing for owing in hv.sender._unacked.values())
    # Its next Register asks to join again.
    hv.handoff("mh:0", "mss:1")
    sim.run(until=2_500)
    assert list(hv.sender.view) == ["mss:0", "mss:1"]
    assert hv.mobile_hosts["mh:0"].delivered_count > 0
    assert any(src == hv.sender.id and dst == "mss:1" and t > 2_000.0
               for src, dst, t in sent)


# ---------------------------------------------------------------------------
# RelM [6]
# ---------------------------------------------------------------------------
def test_relm_delivers_to_all_regions():
    sim = Simulator(seed=9)
    relm = RelMProtocol(sim, n_regions=2, msss_per_region=2, rate_per_sec=20)
    for i in range(4):
        relm.add_mobile_host(f"mh:{i}", f"mss:{i // 2}.{i % 2}")
    relm.source.start()
    sim.run(until=4_000)
    for m in relm.member_hosts():
        assert m.delivered_count > 0


def test_relm_buffers_concentrated_at_sh():
    sim = Simulator(seed=9)
    relm = RelMProtocol(sim, n_regions=2, msss_per_region=3, rate_per_sec=30,
                        catchup_window=16)
    for i in range(6):
        relm.add_mobile_host(f"mh:{i}", f"mss:{i // 3}.{i % 3}")
    relm.source.start()
    sim.run(until=4_000)
    peaks = relm.peak_buffers()
    assert peaks["sh_peak_max"] > peaks["mss_peak_max"]


def test_relm_intra_region_handoff_catches_up():
    sim = Simulator(seed=9)
    relm = RelMProtocol(sim, n_regions=1, msss_per_region=3, rate_per_sec=20)
    relm.add_mobile_host("mh:0", "mss:0.0")
    relm.source.start()
    sim.run(until=2_000)
    relm.handoff("mh:0", "mss:0.2")
    sim.run(until=4_000)
    mh = relm.mobile_hosts["mh:0"]
    assert mh.handoffs == 1
    assert mh.delivered_count > 0


def test_relm_validation():
    with pytest.raises(ValueError):
        RelMProtocol(Simulator(), n_regions=0, msss_per_region=1)


# ---------------------------------------------------------------------------
# Central sequencer
# ---------------------------------------------------------------------------
def test_sequencer_assigns_contiguous_gseqs():
    sim = Simulator(seed=10)
    sq = SequencerMulticast(sim, n_aps=3)
    for i in range(3):
        sq.add_mobile_host(f"mh:{i}", f"ap:{i}")
    srcs = [sq.add_source(rate_per_sec=20) for _ in range(2)]
    for s in srcs:
        s.start()
    sim.run(until=3_000)
    for s in srcs:
        s.stop()
    sim.run(until=5_000)
    total = sum(s.sent for s in srcs)
    assert sq.sequencer.sequenced == total
    mh = sq.mobile_hosts["mh:0"]
    seqs = sorted(g for g, _, _ in mh.app_log)
    assert seqs == list(range(total))


def test_sequencer_all_members_agree():
    sim = Simulator(seed=10)
    sq = SequencerMulticast(sim, n_aps=3)
    for i in range(3):
        sq.add_mobile_host(f"mh:{i}", f"ap:{i}")
    src = sq.add_source(rate_per_sec=25)
    src.start()
    sim.run(until=3_000)
    src.stop()
    sim.run(until=5_000)
    ref = None
    for m in sq.member_hosts():
        this = {g: p for g, p, _ in m.app_log}
        if ref is None:
            ref = this
        else:
            assert this == ref


# ---------------------------------------------------------------------------
# A baseline run does not depend on string hashing
# ---------------------------------------------------------------------------
SRC_DIR = Path(__file__).resolve().parent.parent / "src"

# A Host-View and a RelM run with several MHs per serving node and a few
# moves; prints one sha256 over each trace.
_CELLS = """
import hashlib
from repro.baselines.hostview import HostViewProtocol
from repro.baselines.relm import RelMProtocol
from repro.sim.engine import Simulator
from repro.sim.trace import record_to_line

def digest(build, start, home, moved):
    sim = Simulator(seed=808)
    h = hashlib.sha256()
    sim.trace.subscribe(None, lambda r: h.update(record_to_line(r).encode()))
    net = build(sim)
    for i in range(12):
        net.add_mobile_host(f"mh:{i}", home(i))
    start(net).start()
    for k in range(1, 4):
        sim.schedule_at(500.0 * k, net.handoff, f"mh:{k}", moved(k))
    sim.run(until=3_000)
    return h.hexdigest()

print(digest(lambda sim: HostViewProtocol(sim, n_mss=6, rate_per_sec=20),
             lambda net: net.sender, lambda i: f"mss:{i % 6}",
             lambda k: f"mss:{(k + 1) % 6}"))
print(digest(lambda sim: RelMProtocol(sim, n_regions=2, msss_per_region=3,
                                      rate_per_sec=20),
             lambda net: net.source, lambda i: f"mss:{i % 2}.{i % 3}",
             lambda k: f"mss:0.{(k + 1) % 3}"))
"""


def _python(args, hash_seed, cwd):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *args], cwd=str(cwd), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_baseline_traces_do_not_depend_on_the_hash_seed(tmp_path):
    """Fan-outs iterate in registration order, not in set order: the
    unordered CLI run and a Host-View and a RelM run record the same
    trace at hash seeds 0 and 1."""
    traces, cells = [], []
    for hash_seed in (0, 1):
        record = tmp_path / f"unordered-{hash_seed}.jsonl"
        _python(["-m", "repro", "run", "quickstart",
                 "--set", "system=unordered",
                 "--set", "hierarchy.mhs_per_ap=4", "--duration", "3000",
                 "--quiet", "--record", str(record)], hash_seed, tmp_path)
        traces.append(record.read_bytes())
        cells.append(_python(["-c", _CELLS], hash_seed, tmp_path).split())
    assert traces[0] and traces[0] == traces[1]
    assert len(cells[0]) == 2 and cells[0] == cells[1]
