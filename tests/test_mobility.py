"""Tests for cells, movement models, and the handoff driver."""

import numpy as np
import pytest

from repro.mobility.cells import CellGrid
from repro.mobility.handoff import HandoffDriver
from repro.mobility.models import DirectionalWalk, RandomWalk
from repro.topology.tiers import Tier

from helpers import small_net


# ---------------------------------------------------------------------------
# CellGrid
# ---------------------------------------------------------------------------
def test_grid_requires_exact_ap_count():
    with pytest.raises(ValueError):
        CellGrid(2, 2, ["a", "b", "c"])


def test_grid_mapping_roundtrip():
    grid = CellGrid(2, 2, ["a", "b", "c", "d"])
    assert grid.ap_at((0, 0)) == "a"
    assert grid.ap_at((1, 1)) == "d"
    assert grid.cell_of("c") == (0, 1)
    assert grid.cell_of("zzz") is None


def test_grid_neighbors_interior_and_corner():
    grid = CellGrid(3, 3, [f"ap{i}" for i in range(9)])
    assert len(grid.neighbors((1, 1))) == 4
    assert len(grid.neighbors((0, 0))) == 2
    assert len(grid.neighbors((2, 1))) == 3


def test_square_for_pads():
    grid = CellGrid.square_for(["a", "b", "c"])
    assert grid.cols * grid.rows >= 3
    assert grid.ap_at(grid.cells[-1]) == "c"  # padded with last AP


def test_square_for_empty_rejected():
    with pytest.raises(ValueError):
        CellGrid.square_for([])


# ---------------------------------------------------------------------------
# Movement models
# ---------------------------------------------------------------------------
def test_random_walk_moves_to_neighbors():
    grid = CellGrid(3, 3, [f"ap{i}" for i in range(9)])
    rng = np.random.default_rng(1)
    model = RandomWalk(mean_dwell_ms=100.0)
    cell = (1, 1)
    for _ in range(50):
        dwell, nxt = model.next_move(rng, grid, cell, {})
        assert dwell >= 0
        assert nxt in grid.neighbors(cell)


def test_random_walk_stay_prob():
    grid = CellGrid(3, 3, [f"ap{i}" for i in range(9)])
    rng = np.random.default_rng(1)
    model = RandomWalk(mean_dwell_ms=100.0, stay_prob=0.99)
    stays = sum(
        1 for _ in range(100)
        if model.next_move(rng, grid, (1, 1), {})[1] == (1, 1)
    )
    assert stays > 80


def test_random_walk_validation():
    with pytest.raises(ValueError):
        RandomWalk(mean_dwell_ms=0)
    with pytest.raises(ValueError):
        RandomWalk(stay_prob=1.0)


def test_directional_walk_keeps_heading():
    grid = CellGrid(10, 1, [f"ap{i}" for i in range(10)])
    rng = np.random.default_rng(2)
    model = DirectionalWalk(mean_dwell_ms=100.0, persistence=1.0)
    state = {}
    cell = (0, 0)
    _, cell = model.next_move(rng, grid, cell, state)  # establishes heading
    assert cell == (1, 0)
    for expected_x in (2, 3, 4):
        _, cell = model.next_move(rng, grid, cell, state)
        assert cell == (expected_x, 0)


def test_directional_walk_validation():
    with pytest.raises(ValueError):
        DirectionalWalk(persistence=1.5)


# ---------------------------------------------------------------------------
# HandoffDriver end-to-end
# ---------------------------------------------------------------------------
def test_driver_moves_mhs_and_logs():
    sim, net = small_net(mhs_per_ap=1, seed=6)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=300.0))
    net.start()
    for mh_id, mh in net.mobile_hosts.items():
        driver.track(mh_id, mh.ap)
    sim.run(until=5_000)
    assert driver.handoffs_driven > 0
    assert len(driver.log) == driver.handoffs_driven
    # Driver's belief matches the MH's actual AP.
    for mh_id, mh in net.mobile_hosts.items():
        assert grid.ap_at(driver.cell_of(mh_id)) == mh.ap


def test_driver_stop_freezes_mh():
    sim, net = small_net(mhs_per_ap=1, seed=6)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=200.0))
    net.start()
    mh_id = "mh:0.0.0.0"
    driver.track(mh_id, net.mobile_hosts[mh_id].ap)
    sim.run(until=1_000)
    driver.stop(mh_id)
    moved = net.mobile_hosts[mh_id].handoffs
    sim.run(until=4_000)
    assert net.mobile_hosts[mh_id].handoffs == moved


def test_driver_rejects_unknown_ap():
    sim, net = small_net(mhs_per_ap=1)
    grid = CellGrid(1, 1, ["ap:0.0.0"])
    driver = HandoffDriver(net, grid, RandomWalk())
    with pytest.raises(ValueError):
        driver.track("mh:x", "ap:not.on.grid")


def test_order_preserved_under_continuous_mobility():
    from repro.metrics.order_checker import OrderChecker
    sim, net = small_net(mhs_per_ap=1, seed=8, n_br=3, ags_per_br=2,
                         aps_per_ag=2)
    checker = OrderChecker(sim.trace)
    src = net.add_source(rate_per_sec=20)
    aps = net.hierarchy.nodes_of_tier(Tier.AP)
    grid = CellGrid.square_for(aps)
    driver = HandoffDriver(net, grid, RandomWalk(mean_dwell_ms=400.0))
    net.start()
    src.start()
    for mh_id, mh in net.mobile_hosts.items():
        driver.track(mh_id, mh.ap)
    sim.run(until=8_000)
    checker.assert_ok()
    assert driver.handoffs_driven > 10
