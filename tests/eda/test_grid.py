"""The shared gcell/bin index helper and its three call sites.

``Placement.density_map``, the STA kernel's congestion lookup and
``congestion_net_weights`` historically each hand-rolled the
coordinate-to-bin computation with subtly different expressions; now
all three go through :mod:`repro.eda.grid`.  These tests pin the
helper's semantics (floor, clamp, scalar/vector agreement) and verify
the three layers bin identically on random points including the
boundary cases that used to diverge.
"""

import math

import numpy as np
import pytest

from repro.eda.grid import bin_index, bin_indices


# ------------------------------------------------------------ the helper
def test_bin_index_basics():
    assert bin_index(0.0, 100.0, 10) == 0
    assert bin_index(9.999, 100.0, 10) == 0
    assert bin_index(10.0, 100.0, 10) == 1
    assert bin_index(99.999, 100.0, 10) == 9
    # clamped on both sides
    assert bin_index(-5.0, 100.0, 10) == 0
    assert bin_index(100.0, 100.0, 10) == 9
    assert bin_index(1e9, 100.0, 10) == 9


def test_bin_index_validation():
    with pytest.raises(ValueError):
        bin_index(1.0, 100.0, 0)
    with pytest.raises(ValueError):
        bin_index(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        bin_indices(np.array([1.0]), 100.0, 0)
    with pytest.raises(ValueError):
        bin_indices(np.array([1.0]), -1.0, 4)


def test_bin_indices_matches_scalar_on_random_and_edge_points():
    rng = np.random.default_rng(42)
    extent, n_bins = 537.25, 16
    coords = np.concatenate([
        rng.uniform(-10.0, extent + 10.0, size=500),
        # exact bin boundaries — where truncate-vs-floor variants differed
        np.arange(n_bins + 1) / n_bins * extent,
        np.array([0.0, extent, np.nextafter(extent, 0.0), -0.0]),
    ])
    vec = bin_indices(coords, extent, n_bins)
    for c, v in zip(coords, vec):
        assert bin_index(float(c), extent, n_bins) == int(v), c


def test_bin_index_matches_historical_truncation_form():
    # the old sites truncated toward zero (int()); with clamping that is
    # indistinguishable from floor for every real input
    rng = np.random.default_rng(7)
    extent, n_bins = 100.0, 12
    for c in rng.uniform(-20.0, 140.0, size=400):
        old = min(n_bins - 1, max(0, int(c / extent * n_bins)))
        assert bin_index(float(c), extent, n_bins) == old


# ----------------------------------------------- the three layers agree
def _sta_bin(graph, x, y):
    ny, nx = graph.congestion.shape
    fp = graph.placement.floorplan
    return bin_index(y, fp.height, ny), bin_index(x, fp.width, nx)


def test_density_sta_and_congestion_weights_bin_identically(
    small_netlist, small_placement, small_congestion
):
    """One coordinate, one bin — no matter which layer asks.

    Drives all three call sites through placements whose cells sit on
    random points *and* exact gcell boundaries, and checks each layer's
    observable against the shared helper's answer.
    """
    from repro.eda.congestion import congestion_net_weights
    from repro.eda.sta import GraphSTA

    fp = small_placement.floorplan
    ny, nx = small_congestion.shape
    rng = np.random.default_rng(3)

    names = list(small_placement.positions)
    points = [
        (float(rng.uniform(0, fp.width)), float(rng.uniform(0, fp.height)))
        for _ in names
    ]
    # pin some cells to exact bin boundaries (including the far corner)
    for k, name in enumerate(names[: nx + 1]):
        points[k] = (k / nx * fp.width, min(k, ny) / ny * fp.height)
    placement = type(small_placement)(
        small_netlist, fp, dict(zip(names, points))
    )

    # density_map: a single cell's area must land in the helper's bin
    grid_nx = grid_ny = 8
    for name in names[: nx + 2]:
        x, y = placement.positions[name]
        solo = type(small_placement)(small_netlist, fp, dict(placement.positions))
        dmap = solo.density_map(grid_nx, grid_ny)
        i = bin_index(x, fp.width, grid_nx)
        j = bin_index(y, fp.height, grid_ny)
        assert dmap[j, i] > 0.0 or math.isclose(
            small_netlist.instances[name].cell.area, 0.0
        )

    # STA congestion lookup: _net_congestion reads the helper's gcell
    graph = GraphSTA().build_graph(
        small_netlist, placement, congestion=small_congestion
    )
    net_cong = graph._net_congestion(graph.topology.soa)
    ids = graph.topology.net_index.ids
    for net_name, net in small_netlist.nets.items():
        if net.driver is None:
            continue
        x, y = placement.positions[net.driver]
        j, i = _sta_bin(graph, x, y)
        assert net_cong[ids[net_name]] == float(small_congestion[j, i])

    # congestion_net_weights: a net's worst congestion is the max over
    # the helper-binned bbox of its pins
    weights = congestion_net_weights(placement, small_congestion, alpha=2.0)
    for net_name, weight in weights.items():
        net = small_netlist.nets[net_name]
        pts = []
        if net.driver is not None:
            pts.append(placement.positions[net.driver])
        pts += [placement.positions[s] for s, _ in net.sinks]
        pad = fp.pad_positions.get(net_name)
        if pad is not None:
            pts.append(pad)
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        i0, i1 = bin_index(min(xs), fp.width, nx), bin_index(max(xs), fp.width, nx)
        j0, j1 = bin_index(min(ys), fp.height, ny), bin_index(max(ys), fp.height, ny)
        worst = float(small_congestion[j0 : j1 + 1, i0 : i1 + 1].max())
        assert weight == 1.0 + 2.0 * max(0.0, worst - 0.9)


def test_gcell_indices_matches_scalar_on_boundary_and_interior_points():
    from repro.eda.grid import gcell_indices

    rng = np.random.default_rng(13)
    width, height, nx, ny = 23.7, 17.1, 11, 7
    xs = np.concatenate([
        rng.uniform(-1.0, width + 1.0, 200),
        np.array([0.0, width, width / 2, -0.25]),
        np.arange(nx) * width / nx,  # bin edges
    ])
    ys = np.concatenate([
        rng.uniform(-1.0, height + 1.0, 200),
        np.array([height, 0.0, -0.5, height / 3]),
        np.arange(nx) * height / nx,
    ])
    ii, jj = gcell_indices(xs, ys, width, height, nx, ny)
    for k in range(xs.shape[0]):
        assert ii[k] == bin_index(float(xs[k]), width, nx)
        assert jj[k] == bin_index(float(ys[k]), height, ny)
    assert ii.min() >= 0 and ii.max() <= nx - 1
    assert jj.min() >= 0 and jj.max() <= ny - 1
