"""Routing: global congestion behaviour and detailed-route dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.floorplan import make_floorplan
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import (
    SUCCESS_DRV_THRESHOLD,
    DetailedRouter,
    GlobalRouter,
)


# ------------------------------------------------------------ global route
def test_global_route_produces_demand(small_placement):
    result = GlobalRouter().route(small_placement, seed=1)
    assert result.demand_h.sum() + result.demand_v.sum() > 0
    assert result.wirelength > 0


def test_congestion_map_shape_and_range(small_congestion):
    assert small_congestion.shape == (16, 16)
    assert small_congestion.min() >= 0.0
    assert np.isfinite(small_congestion).all()


def test_supply_scales_congestion(small_placement):
    rich = GlobalRouter(tracks_per_um=40.0).route(small_placement, seed=1)
    poor = GlobalRouter(tracks_per_um=6.0).route(small_placement, seed=1)
    assert poor.max_congestion > rich.max_congestion
    assert poor.overflow >= rich.overflow


def test_utilization_increases_congestion(small_netlist):
    def max_cong(util):
        fp = make_floorplan(small_netlist, utilization=util)
        pl = QuadraticPlacer().place(small_netlist, fp, seed=2)
        return GlobalRouter().route(pl, seed=3).congestion_map().mean()

    assert max_cong(0.9) > max_cong(0.5)


def test_negotiation_reduces_overflow(small_placement):
    none = GlobalRouter(negotiation_rounds=0, tracks_per_um=8.0).route(small_placement, seed=4)
    some = GlobalRouter(negotiation_rounds=4, tracks_per_um=8.0).route(small_placement, seed=4)
    assert some.overflow <= none.overflow


def test_router_validation():
    with pytest.raises(ValueError):
        GlobalRouter(nx=1)
    with pytest.raises(ValueError):
        GlobalRouter(tracks_per_um=0.0)
    # each of these used to construct, then mis-route or crash in route()
    for bad, message in (
        (dict(negotiation_rounds=-1), "negotiation_rounds"),  # routed nothing
        (dict(negotiation_rounds=2.5), "negotiation_rounds"),  # TypeError
        (dict(negotiation_rounds=True), "negotiation_rounds"),
        (dict(nx=16.5), "nx"),  # TypeError
        (dict(ny=np.float64(16.0)), "ny"),
        (dict(overflow_penalty=-3.0), "overflow_penalty"),  # rewarded overflow
        (dict(overflow_penalty=float("nan")), "overflow_penalty"),  # NaN costs
        (dict(overflow_penalty=float("inf")), "overflow_penalty"),
        (dict(tracks_per_um=float("nan")), "tracks_per_um"),  # NaN overflow
        (dict(tracks_per_um=float("inf")), "tracks_per_um"),  # zero congestion
    ):
        with pytest.raises(ValueError, match=message):
            GlobalRouter(**bad)


def test_router_accepts_numpy_integers(small_placement):
    a = GlobalRouter(nx=np.int64(12), ny=np.int32(10),
                     negotiation_rounds=np.int64(2)).route(small_placement, seed=5)
    b = GlobalRouter(nx=12, ny=10, negotiation_rounds=2).route(small_placement, seed=5)
    assert np.array_equal(a.demand_h, b.demand_h)
    assert np.array_equal(a.demand_v, b.demand_v)
    assert a.wirelength == b.wirelength


# ----------------------------------------------------------- detailed route
def test_easy_map_converges_to_zero():
    cong = np.full((16, 16), 0.6)
    result = DetailedRouter().route(cong, seed=1)
    assert result.final_drvs == 0
    assert result.success


def test_doomed_map_stays_high():
    cong = np.full((16, 16), 1.35)
    result = DetailedRouter().route(cong, seed=1)
    assert result.final_drvs > SUCCESS_DRV_THRESHOLD
    assert not result.success


def test_drv_history_starts_at_seeded_count():
    cong = np.full((8, 8), 1.0)
    result = DetailedRouter(max_iterations=5).route(cong, seed=2)
    assert len(result.drvs_per_iteration) == result.iterations_run + 1
    assert result.initial_drvs == result.drvs_per_iteration[0]


def test_effort_speeds_convergence():
    cong = np.full((16, 16), 0.85)
    lazy = DetailedRouter(effort=0.25, shock_prob=0.0).route(cong, seed=3)
    eager = DetailedRouter(effort=1.0, shock_prob=0.0).route(cong, seed=3)
    assert eager.final_drvs <= lazy.final_drvs


def test_stop_callback_terminates_early():
    cong = np.full((16, 16), 1.3)
    stopped = DetailedRouter(max_iterations=20).route(
        cong, seed=4, stop_callback=lambda hist: len(hist) >= 4
    )
    assert stopped.stopped_early
    assert stopped.iterations_run <= 4
    assert not stopped.success  # stopped runs never count as successes


def test_determinism_given_seed():
    cong = np.full((12, 12), 0.95)
    a = DetailedRouter().route(cong, seed=9)
    b = DetailedRouter().route(cong, seed=9)
    assert a.drvs_per_iteration == b.drvs_per_iteration


def test_seed_changes_trajectory():
    cong = np.full((12, 12), 0.95)
    a = DetailedRouter().route(cong, seed=1)
    b = DetailedRouter().route(cong, seed=2)
    assert a.drvs_per_iteration != b.drvs_per_iteration


def test_metadata_recorded():
    cong = np.full((8, 8), 1.1)
    result = DetailedRouter().route(cong, seed=5)
    assert result.metadata["max_congestion"] == pytest.approx(1.1)
    assert result.metadata["overflow_fraction"] == pytest.approx(1.0)


def test_detailed_router_validation():
    with pytest.raises(ValueError):
        DetailedRouter(max_iterations=0)
    with pytest.raises(ValueError):
        DetailedRouter(effort=0.0)
    with pytest.raises(ValueError):
        DetailedRouter(shock_prob=2.0)
    with pytest.raises(ValueError):
        DetailedRouter().route(np.zeros(5), seed=0)  # 1-D map
    # each of these used to construct, then fail or mis-route in route()
    for bad, message in (
        (dict(max_iterations=2.5), "max_iterations"),  # TypeError from range
        (dict(max_iterations=True), "max_iterations"),  # routed one pass
        (dict(max_iterations=np.float64(20.0)), "max_iterations"),
        (dict(drv_seed_rate=-1.0), "drv_seed_rate"),  # numpy: lam < 0
        (dict(drv_seed_rate=float("nan")), "drv_seed_rate"),
        (dict(drv_seed_rate=float("inf")), "drv_seed_rate"),
        (dict(spill_rate=-0.5), "spill_rate"),  # clipped to 0
        (dict(spill_rate=float("nan")), "spill_rate"),
        (dict(shock_frac=-1.0), "shock_frac"),  # failed when a shock fired
        (dict(shock_frac=float("inf")), "shock_frac"),
    ):
        with pytest.raises(ValueError, match=message):
            DetailedRouter(**bad)
    router = DetailedRouter(max_iterations=np.int64(3))
    assert router.route(np.full((4, 4), 0.5), seed=0).iterations_run <= 3
    # a trajectory only resumes on a map of its own shape
    trajectory = router.start(np.full((4, 4), 0.5), seed=0)
    with pytest.raises(ValueError, match="shape"):
        router.route(np.full((4, 5), 0.5), seed=0, trajectory=trajectory)


@settings(max_examples=10, deadline=None)
@given(
    base=st.floats(min_value=0.3, max_value=1.4, allow_nan=False),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_drvs_never_negative(base, seed):
    cong = np.full((8, 8), base)
    result = DetailedRouter(max_iterations=8).route(cong, seed=seed)
    assert all(v >= 0 for v in result.drvs_per_iteration)


# ---------------------------------------------------------------------------
# Scatter conservation (the detailed router's spill redistribution)
# ---------------------------------------------------------------------------
from repro.eda.grid import bin_index  # noqa: E402
from repro.eda.routing import GlobalRouteResult, _scatter_to_neighbors  # noqa: E402

from .routing_reference import _scatter_to_neighbors as reference_scatter  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_scatter_conserves_total_violation_count(seed):
    rng = np.random.default_rng(seed)
    counts = rng.poisson(2.0, size=(7, 5)).astype(float)
    out = _scatter_to_neighbors(counts, np.random.default_rng(seed + 1))
    assert out.sum() == counts.sum()
    assert (out >= 0).all()


def test_scatter_clips_at_grid_edges():
    """Spills off the grid fold back onto the edge cell, not vanish."""
    counts = np.zeros((3, 3))
    counts[0, 0] = 40.0  # corner: left and up draws clip back to row/col 0
    out = _scatter_to_neighbors(counts, np.random.default_rng(9))
    assert out.sum() == 40.0
    # everything lands in the corner's clipped neighborhood
    assert out[0, 0] + out[0, 1] + out[1, 0] == 40.0


def test_scatter_batched_matches_per_cell_loop():
    """The batched multinomial draw equals the frozen per-cell loop, and
    leaves the generator in the same state."""
    rng = np.random.default_rng(21)
    counts = rng.poisson(3.0, size=(9, 11)).astype(float)
    fast_rng = np.random.default_rng(5)
    slow_rng = np.random.default_rng(5)
    fast = _scatter_to_neighbors(counts, fast_rng)
    slow = reference_scatter(counts, slow_rng)
    assert np.array_equal(fast, slow)
    assert fast_rng.random() == slow_rng.random()


def test_scatter_empty_grid_is_noop():
    out = _scatter_to_neighbors(np.zeros((4, 4)), np.random.default_rng(0))
    assert out.sum() == 0.0


# ---------------------------------------------------------------------------
# Congestion-map edge-count normalization on degenerate grids
# ---------------------------------------------------------------------------
def _result(nx, ny, demand_h, demand_v, cap=2.0):
    return GlobalRouteResult(
        nx=nx, ny=ny,
        demand_h=np.asarray(demand_h, dtype=float),
        demand_v=np.asarray(demand_v, dtype=float),
        capacity_h=cap, capacity_v=cap, wirelength=0.0,
    )


def test_congestion_map_2x2_averages_both_incident_edges():
    res = _result(2, 2, [[2.0], [4.0]], [[6.0, 8.0]])
    cmap = res.congestion_map()
    # every cell touches exactly one h-edge and one v-edge
    assert cmap.shape == (2, 2)
    assert np.array_equal(cmap, np.array([[(1.0 + 3.0) / 2, (1.0 + 4.0) / 2],
                                          [(2.0 + 3.0) / 2, (2.0 + 4.0) / 2]]))


def test_congestion_map_single_row_normalizes_by_h_edges_only():
    # ny=1: no vertical edges exist; interior cells average two h-edges,
    # corner cells see just one — counts must reflect that, not a fixed 4.
    res = _result(3, 1, [[2.0, 4.0]], np.zeros((0, 3)))
    cmap = res.congestion_map()
    assert np.array_equal(cmap, np.array([[1.0, (1.0 + 2.0) / 2, 2.0]]))


def test_congestion_map_single_column_normalizes_by_v_edges_only():
    res = _result(1, 3, np.zeros((3, 0)), [[2.0], [4.0]])
    cmap = res.congestion_map()
    assert np.array_equal(cmap, np.array([[1.0], [(1.0 + 2.0) / 2], [2.0]]))


# ---------------------------------------------------------------------------
# Gcell binning boundary regression (the shared bin_index bugfix)
# ---------------------------------------------------------------------------
def test_gcell_binning_boundary_points(small_placement):
    """Pads sit exactly on the core edge; they must bin into the last gcell."""
    fp = small_placement.floorplan
    nx = ny = 16
    # IO pads live at x == width / y == height exactly
    for pad in fp.pad_positions.values():
        assert 0 <= bin_index(pad[0], fp.width, nx) <= nx - 1
        assert 0 <= bin_index(pad[1], fp.height, ny) <= ny - 1
    assert bin_index(fp.width, fp.width, nx) == nx - 1
    assert bin_index(fp.height, fp.height, ny) == ny - 1
    assert bin_index(0.0, fp.width, nx) == 0


def test_router_segments_use_shared_binning(small_placement):
    """Every segment endpoint the router produces is a legal gcell index —
    including the ones anchored on edge pads.  (That the segments equal
    the per-net reference build is checked through the full route in
    ``test_place_route_equivalence.py``.)"""
    router = GlobalRouter(nx=11, ny=13)
    fp = small_placement.floorplan
    segs = router._segments(small_placement)
    assert segs
    for ia, ja, ib, jb in segs:
        assert 0 <= ia < 11 and 0 <= ib < 11
        assert 0 <= ja < 13 and 0 <= jb < 13
