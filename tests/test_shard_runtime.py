"""Sharded execution: engine keys, window stepping, trace identity.

The exhaustive all-scenario identity matrix lives in
``test_trace_identity.py`` (the sharded re-record pass); these tests
cover the mechanisms it rests on plus targeted end-to-end runs for the
synchronization-probe paths (churn, token-holder crash).
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.experiments import registry
from repro.shard import record_sharded, run_sharded
from repro.shard.record import merge_streams
from repro.sim.engine import Simulator, mix_key
from repro.validation.record import first_divergence, record_spec


def short(name, duration, **extra):
    overrides = {"duration_ms": duration, "warmup_ms": 0.0}
    overrides.update(extra)
    return registry.get(name, **overrides)


# ----------------------------------------------------------------------
# Engine: causal keys and ownership contexts
# ----------------------------------------------------------------------
def test_causal_keys_are_decomposition_invariant():
    """An event's key depends only on its causal ancestry, not on what
    other events exist — the property sharding rests on."""
    def chain_keys(extra_noise):
        sim = Simulator(seed=0)
        keys = []

        def hop(depth):
            keys.append(sim._ctx_key)
            if depth:
                sim.schedule(1.0, hop, depth - 1)

        sim.schedule(1.0, hop, 3)
        if extra_noise:
            # Unrelated events; under the old global counter these
            # would have shifted every subsequent seq.
            for _ in range(50):
                sim.schedule(0.5, lambda: None)
        sim.run()
        return keys

    assert chain_keys(False) == chain_keys(True)


def test_mix_key_is_stable_and_nonzero():
    assert mix_key(0, 0) == mix_key(0, 0)
    assert mix_key(0, 0) != mix_key(0, 2)
    for salt in range(100):
        assert mix_key(12345, salt) >= 1


def test_gate_drops_foreign_events_but_keys_stay_aligned():
    def run(gated):
        sim = Simulator(seed=0)
        if gated:
            sim.gate = lambda owner: owner == "mine"
        fired = []
        keys = {}
        sim.schedule(1.0, lambda: fired.append("a"), owner="mine")
        keys["theirs"] = sim.schedule(1.0, lambda: fired.append("b"),
                                      owner="theirs")
        keys["mine2"] = sim.schedule(2.0, lambda: fired.append("c"),
                                     owner="mine")
        sim.run()
        return fired, keys

    fired_all, keys_all = run(gated=False)
    fired_gated, keys_gated = run(gated=True)
    assert sorted(fired_all) == ["a", "b", "c"]
    assert fired_gated == [f for f in fired_all if f != "b"]
    # The foreign event came back dead, and key alignment held.
    assert keys_gated["theirs"].cancelled
    assert not keys_gated["theirs"].in_heap
    assert keys_gated["mine2"].key == keys_all["mine2"].key


def test_call_owned_skips_foreign_sections_and_stays_aligned():
    def run(local_owner):
        sim = Simulator(seed=0)
        sim.gate = lambda owner: owner == local_owner
        ran = []
        sim.call_owned("x", ran.append, "x-section")
        sim.call_owned("y", ran.append, "y-section")
        after = sim.schedule(1.0, lambda: None, owner=local_owner)
        return ran, after.key

    ran_x, key_x = run("x")
    ran_y, key_y = run("y")
    assert ran_x == ["x-section"]
    assert ran_y == ["y-section"]
    # Both shards minted the same key for the event after the sections.
    assert key_x == key_y


def test_run_window_is_exclusive_and_inclusive_tail():
    sim = Simulator(seed=0)
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(2.0, fired.append, 2)
    sim.schedule(3.0, fired.append, 3)
    assert sim.run_window(2.0) == 1          # strictly below t=2
    assert fired == [1]
    assert sim.run_window(3.0) == 1          # [2, 3): picks up t=2
    assert fired == [1, 2]
    assert sim.run_window(3.0, inclusive=True) == 1   # the horizon tail
    assert fired == [1, 2, 3]


def test_run_window_stops_exactly_before_a_key():
    sim = Simulator(seed=0)
    fired = []
    evs = [sim.schedule(1.0, fired.append, i) for i in range(5)]
    order = sorted(evs, key=lambda e: e.key)
    stop = order[2]
    sim.run_window(1.0, stop.key)
    assert fired == [evs.index(order[0]), evs.index(order[1])]
    assert sim.peek_entry() == (1.0, stop.key)


# ----------------------------------------------------------------------
# K=1 is the exact sequential path
# ----------------------------------------------------------------------
def test_one_shard_is_exactly_sequential():
    spec = short("quickstart", 600.0)
    seq = record_spec(spec)
    lines = record_sharded(spec, 1)
    assert first_divergence(seq.lines, lines) is None


# ----------------------------------------------------------------------
# End-to-end identity on the probe paths
# ----------------------------------------------------------------------
def test_churn_probe_path_byte_identical():
    spec = short("churn_heavy", 1500.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.probe_syncs > 0, "churn run must exercise probes"
    div = first_divergence(seq.lines, result.merged_lines)
    assert div is None, div.describe() if div else None


def test_token_holder_probe_path_byte_identical():
    spec = short("failure_drill", 3500.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.probe_syncs >= 1  # the @token_holder crash at 3000ms
    div = first_divergence(seq.lines, result.merged_lines)
    assert div is None, div.describe() if div else None


def test_roaming_mhs_are_served_over_the_cut():
    spec = short("handoff_storm", 2000.0)
    result = run_sharded(spec, 2, record=True)
    # The corridor walk crosses the BR boundary while ownership stays
    # with the initial AP's shard: the roamers' traffic must ride the
    # cut as exported arrivals and still merge byte-identically.
    assert result.exported > 0
    assert result.rebalances == 0
    seq = record_spec(spec)
    assert first_divergence(seq.lines, result.merged_lines) is None


# ----------------------------------------------------------------------
# Runtime statistics and results
# ----------------------------------------------------------------------
def test_shard_result_statistics_are_consistent():
    spec = short("quickstart", 800.0)
    seq = record_spec(spec)
    result = run_sharded(spec, 2, record=True)
    assert result.n_shards == 2
    assert len(result.shard_events) == 2
    assert result.events == sum(result.shard_events)
    assert result.exported > 0
    assert result.windows > 0
    assert result.lookahead == 2.0  # the WIRED cut latency
    assert result.peak_heap > 0
    stats = result.run_result(spec).shard
    assert stats["window_stalls"] == sum(result.stalled_windows)
    assert stats["events_per_sec"] >= 0
    assert "deliveries" not in stats, "the run entry's delivered says it"
    # Per-kind trace counts aggregate to the sequential run's counts.
    assert sum(result.trace_counts.values()) == len(seq.lines)


def test_merge_streams_orders_by_key():
    streams = [
        [((1.0, 5, 0), "b"), ((2.0, 1, 0), "d")],
        [((1.0, 2, 0), "a"), ((1.0, 7, 0), "c")],
    ]
    assert merge_streams(streams) == ["a", "b", "c", "d"]


def test_run_result_needs_the_merged_trace():
    spec = short("quickstart", 100.0)
    result = run_sharded(spec, 1)
    assert result.merged_lines is None and result.totals["sent"] > 0
    with pytest.raises(ValueError, match="record=True"):
        result.run_result(spec)


def test_bad_shard_count():
    with pytest.raises(ValueError):
        run_sharded(short("quickstart", 100.0), 0)


def test_stopped_worker_is_diagnosed_and_reaped(monkeypatch):
    """A worker that is alive but silent must fail the run with a
    diagnosis inside the deadline instead of hanging the coordinator,
    and no worker may outlive the failed run."""
    from repro.shard import runtime

    deadline_s = 1.0
    monkeypatch.setattr(runtime, "WORKER_SILENCE_DEADLINE_S", deadline_s)
    # Long enough that the run cannot finish before a worker is stopped.
    spec = short("quickstart", 600_000.0)
    outcome = []

    def run():
        try:
            outcome.append(run_sharded(spec, 2))
        except RuntimeError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        give_up = time.monotonic() + 30.0
        while len(multiprocessing.active_children()) < 2:
            assert time.monotonic() < give_up, "workers never started"
            time.sleep(0.01)
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGSTOP)
        stopped_at = time.monotonic()
        thread.join(timeout=deadline_s + 30.0)
        assert not thread.is_alive(), "coordinator hung on a silent worker"
        # The margin covers a loaded runner, not the protocol: the raise
        # itself comes one poll after the deadline.
        assert time.monotonic() - stopped_at < deadline_s + 10.0
        (exc,) = outcome
        assert isinstance(exc, RuntimeError), exc
        msg = str(exc)
        assert "alive but sent nothing" in msg
        assert msg.startswith(("shard 0 worker", "shard 1 worker"))
        for shard in (0, 1):
            assert f"shard {shard}: front=" in msg
        assert "earliest=" in msg
        assert multiprocessing.active_children() == [], \
            "run_sharded left workers behind"
    finally:
        for proc in multiprocessing.active_children():
            os.kill(proc.pid, signal.SIGCONT)
            proc.terminate()
            proc.join(timeout=5.0)


# ----------------------------------------------------------------------
# Lock-step rounds
# ----------------------------------------------------------------------
def test_stats_dict_reports_adaptive_runtime_fields():
    """The run entry's ``shard`` section (what ``stats_dict()`` was)."""
    spec = short("handoff_storm", 2000.0)
    result = run_sharded(spec, 2, record=True)
    stats = result.run_result(spec).shard
    # One scalar: the WIRED cut latency, under the wireless cap.
    assert stats["lookahead_ms"] == 2.0
    assert stats["windows_per_shard"] and len(stats["shard_wall_s"]) == 2
    assert not {"lookahead_matrix_ms", "stall_causes",
                "export_queue_peak_per_shard"} & set(stats)


def test_lock_step_windows_do_not_depend_on_shard_count(sharded_golden_run):
    """Every round grants every shard the same window from the global
    earliest event, so the round count is the sequential heap's, not
    the partition's (reuses the fixture's cached runs: no extra
    simulation)."""
    assert sharded_golden_run("quickstart", 2).windows == \
        sharded_golden_run("quickstart", 4).windows


def test_a_grant_one_lookahead_too_far_is_caught(monkeypatch):
    """The sharded oracle can fail: a coordinator that grants one
    lookahead past the safe bound lets an arrival land behind a shard's
    clock, and the run raises or its merged trace diverges."""
    from repro.shard import runtime

    monkeypatch.setattr(
        runtime, "_grant",
        lambda lb, lookahead, horizon: min(horizon, lb + 2 * lookahead))
    spec = short("quickstart", 600.0)
    try:
        result = run_sharded(spec, 2, record=True)
    except RuntimeError as exc:
        assert "SimulationError" in str(exc), exc
        return
    assert first_divergence(record_spec(spec).lines,
                            result.merged_lines) is not None
