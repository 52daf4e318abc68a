"""Unit tests for logical rings."""

import pytest

from repro.topology.ring import LogicalRing


def ring3():
    return LogicalRing("r", ["a", "b", "c"], leader="a")


def test_defaults_first_member_as_leader():
    r = LogicalRing("r", ["x", "y"])
    assert r.leader == "x"


def test_empty_ring_rejected():
    with pytest.raises(ValueError):
        LogicalRing("r", [])


def test_duplicate_members_rejected():
    with pytest.raises(ValueError):
        LogicalRing("r", ["a", "a"])


def test_foreign_leader_rejected():
    with pytest.raises(ValueError):
        LogicalRing("r", ["a"], leader="z")


def test_next_prev_wrap():
    r = ring3()
    assert r.next_of("a") == "b"
    assert r.next_of("c") == "a"
    assert r.prev_of("a") == "c"
    assert r.prev_of("b") == "a"


def test_singleton_ring_self_neighbors():
    r = LogicalRing("r", ["only"])
    assert r.next_of("only") == "only"
    assert r.prev_of("only") == "only"


def test_contains_iter_len():
    r = ring3()
    assert "b" in r and "z" not in r
    assert list(r) == ["a", "b", "c"]
    assert len(r) == 3


def test_remove_member_splices():
    r = ring3()
    r.remove_member("b")
    assert r.members == ["a", "c"]
    assert r.next_of("a") == "c"


def test_remove_leader_elects_successor():
    r = ring3()
    r.remove_member("a")
    assert r.leader == "b"  # successor takes over


def test_remove_last_member_rejected():
    r = LogicalRing("r", ["a"])
    with pytest.raises(ValueError):
        r.remove_member("a")
