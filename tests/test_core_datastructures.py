"""Unit tests for MQ / WQ / WT (paper §4.1)."""

import pytest

from repro.core.datastructures import (
    BufferedMessage,
    MessageQueue,
    WorkingQueue,
    WorkingTable,
    WQEntry,
)


def bm(seq: int, **kw) -> BufferedMessage:
    defaults = dict(global_seq=seq, source="src:0", local_seq=seq,
                    ordering_node="br:0", payload=("p", seq))
    defaults.update(kw)
    return BufferedMessage(**defaults)


# ---------------------------------------------------------------------------
# MessageQueue
# ---------------------------------------------------------------------------
def test_mq_initial_pointers():
    mq = MessageQueue()
    assert mq.front == -1 and mq.rear == -1 and mq.valid_front == 0
    assert mq.occupancy == 0


def test_mq_start_seq_offsets_pointers():
    mq = MessageQueue(start_seq=10)
    assert mq.front == 9 and mq.valid_front == 10
    assert mq.insert(bm(10))
    assert not mq.insert(bm(9))  # below membership base: stale


def test_mq_insert_and_get():
    mq = MessageQueue()
    assert mq.insert(bm(0))
    assert mq.get(0).payload == ("p", 0)
    assert mq.has(0) and 0 in mq


def test_mq_duplicate_rejected():
    mq = MessageQueue()
    assert mq.insert(bm(0))
    assert not mq.insert(bm(0))
    assert mq.inserted == 1


def test_mq_rear_tracks_max():
    mq = MessageQueue()
    mq.insert(bm(5))
    mq.insert(bm(2))
    assert mq.rear == 5


def test_mq_out_of_order_insert_then_advance():
    mq = MessageQueue()
    mq.insert(bm(1))
    mq.mark_delivered(1)
    assert mq.advance_front() == 0  # hole at 0
    mq.insert(bm(0))
    mq.mark_delivered(0)
    assert mq.advance_front() == 2
    assert mq.front == 1


def test_mq_advance_stops_at_undelivered():
    mq = MessageQueue()
    for i in range(3):
        mq.insert(bm(i))
    mq.mark_delivered(0)
    assert mq.advance_front() == 1
    assert mq.front == 0


def test_mq_tombstone_counts_as_delivered():
    mq = MessageQueue()
    mq.insert(bm(0))
    mq.mark_delivered(0)
    mq.tombstone_lost(1)
    mq.insert(bm(2))
    mq.mark_delivered(2)
    assert mq.advance_front() == 3
    t = mq.get(1)
    assert t.really_lost and t.delivered and not t.received


def test_mq_tombstone_existing_message():
    mq = MessageQueue()
    mq.insert(bm(0))
    mq.tombstone_lost(0)
    assert mq.get(0).really_lost


def test_mq_prune_respects_retention():
    mq = MessageQueue()
    for i in range(10):
        mq.insert(bm(i))
        mq.mark_delivered(i)
    mq.advance_front()
    dropped = mq.prune(retention=3)
    assert dropped == 7
    assert mq.valid_front == 7
    assert not mq.has(6) and mq.has(7)


def test_mq_prune_never_drops_undelivered():
    mq = MessageQueue()
    for i in range(5):
        mq.insert(bm(i))
    mq.mark_delivered(0)
    mq.advance_front()
    mq.prune(retention=0)
    assert mq.has(1)  # undelivered survives (front stopped before it)


def test_mq_stale_insert_rejected_after_prune():
    mq = MessageQueue()
    for i in range(5):
        mq.insert(bm(i))
        mq.mark_delivered(i)
    mq.advance_front()
    mq.prune(retention=0)
    assert not mq.insert(bm(2))


def test_mq_peak_occupancy():
    mq = MessageQueue()
    for i in range(4):
        mq.insert(bm(i))
    assert mq.peak_occupancy == 4
    for i in range(4):
        mq.mark_delivered(i)
    mq.advance_front()
    mq.prune(0)
    assert mq.occupancy == 0
    assert mq.peak_occupancy == 4


def test_mq_capacity_overflow_counted():
    mq = MessageQueue(capacity=2)
    for i in range(4):
        mq.insert(bm(i))
    assert mq.overflows == 2
    assert mq.occupancy == 4  # soft overflow: measured, not dropped


def test_mq_negative_capacity_rejected():
    with pytest.raises(ValueError):
        MessageQueue(capacity=-1)


def test_mq_range_iterates_in_order():
    mq = MessageQueue()
    for i in (3, 1, 2):
        mq.insert(bm(i))
    assert [m.global_seq for m in mq.range(1, 3)] == [1, 2, 3]
    assert [m.global_seq for m in mq.range(0, 0)] == []


# ---------------------------------------------------------------------------
# WorkingQueue
# ---------------------------------------------------------------------------
def wq_entry(node: str, lseq: int) -> WQEntry:
    return WQEntry(ordering_node=node, source=f"src-{node}", local_seq=lseq,
                   payload=(node, lseq), created_at=0.0, arrived_at=0.0)


def test_wq_insert_and_stream():
    wq = WorkingQueue()
    assert wq.insert(wq_entry("br:0", 0))
    assert wq.insert(wq_entry("br:0", 1))
    assert wq.insert(wq_entry("br:1", 0))
    assert len(wq.stream("br:0")) == 2
    assert wq.occupancy == 3


def test_wq_duplicate_rejected():
    wq = WorkingQueue()
    assert wq.insert(wq_entry("br:0", 0))
    assert not wq.insert(wq_entry("br:0", 0))


def test_wq_remove():
    wq = WorkingQueue()
    wq.insert(wq_entry("br:0", 0))
    e = wq.remove("br:0", 0)
    assert e is not None and e.local_seq == 0
    assert wq.remove("br:0", 0) is None
    assert wq.remove("br:9", 5) is None


def test_wq_peak_tracks_max():
    wq = WorkingQueue()
    for i in range(5):
        wq.insert(wq_entry("br:0", i))
    for i in range(5):
        wq.remove("br:0", i)
    assert wq.occupancy == 0
    assert wq.peak_occupancy == 5


def test_wq_capacity_overflow_counted():
    wq = WorkingQueue(capacity_per_stream=2)
    for i in range(3):
        wq.insert(wq_entry("br:0", i))
    assert wq.overflows == 1


def test_wq_streams_iteration():
    wq = WorkingQueue()
    wq.insert(wq_entry("br:0", 0))
    wq.insert(wq_entry("br:1", 0))
    assert sorted(node for node, _ in wq.streams()) == ["br:0", "br:1"]


# ---------------------------------------------------------------------------
# WorkingTable
# ---------------------------------------------------------------------------
def test_wt_add_and_query():
    wt = WorkingTable()
    wt.add_child("c1", 5)
    assert wt.max_delivered("c1") == 5
    assert "c1" in wt and len(wt) == 1


def test_wt_record_never_lowers():
    wt = WorkingTable()
    wt.add_child("c1", 0)
    wt.record_delivered("c1", 5)
    wt.record_delivered("c1", 3)
    assert wt.max_delivered("c1") == 5


def test_wt_record_unknown_child_ignored():
    wt = WorkingTable()
    wt.record_delivered("ghost", 9)
    assert wt.max_delivered("ghost") is None


def test_wt_min_across_children():
    wt = WorkingTable()
    wt.add_child("a", 3)
    wt.add_child("b", 7)
    assert wt.min_delivered_across() == 3
    wt.record_delivered("a", 10)
    assert wt.min_delivered_across() == 7


def test_wt_min_across_empty_is_none():
    assert WorkingTable().min_delivered_across() is None


def test_wt_remove_child():
    wt = WorkingTable()
    wt.add_child("a", 0)
    wt.remove_child("a")
    assert "a" not in wt
    wt.remove_child("a")  # idempotent


def test_wt_children_sorted():
    wt = WorkingTable()
    wt.add_child("b", 0)
    wt.add_child("a", 0)
    assert wt.children == ["a", "b"]


# ---------------------------------------------------------------------------
# MQ delivery lifecycle
# ---------------------------------------------------------------------------
def test_mq_pending_tracks_lifecycle():
    mq = MessageQueue()
    for seq in (0, 2, 1):
        mq.insert(bm(seq))
    mq.mark_delivered(0)
    assert mq.advance_front() == 1
    mq.tombstone_lost(3)
    assert mq.get(3).delivered      # tombstones arrive pre-delivered
    mq.mark_delivered(1)
    mq.mark_delivered(2)
    assert mq.advance_front() == 3 and mq.front == mq.rear == 3


def test_mq_pending_survives_prune_and_anchor():
    mq = MessageQueue()
    for seq in range(10):
        mq.insert(bm(seq))
        mq.mark_delivered(seq)
    mq.advance_front()
    assert mq.prune(retention=0) == 10
    assert len(mq) == 0
    mq.anchor(start_seq=50)
    assert mq.insert(bm(50))
    assert (mq.front, mq.rear, mq.missing) == (49, 50, 0)


def test_mq_duplicate_insert_does_not_inflate_pending():
    mq = MessageQueue()
    assert mq.insert(bm(4))
    assert not mq.insert(bm(4))
    assert len(mq) == 1 and mq.inserted == 1
