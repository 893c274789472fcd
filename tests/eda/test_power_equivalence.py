"""Power, IR-drop, density and HPWL kernels vs the frozen scalar references.

The array kernels — ``estimate_power``'s bincount pin caps and left-fold
total, ``ir_drop_analysis``'s index-array relaxation, the bincount
``Placement.density_map`` and the segmented ``Placement.net_lengths`` —
must agree **bitwise** with the per-object loops frozen in
``tests/eda/power_reference.py``: across the six benchmark design
profiles and three placement seeds, square grids of 16, 8 and 5 bins, a
non-square density map, two frequencies and two activities, no
placement at all, and an empty placement (the zero-density branch).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.bench.generators import design_profile
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import Placement, QuadraticPlacer
from repro.eda.power import estimate_power, ir_drop_analysis
from repro.eda.synthesis import synthesize

from .power_reference import (
    reference_density_map,
    reference_estimate_power,
    reference_hpwl,
    reference_ir_drop_analysis,
    reference_net_length,
)

DESIGNS = ("PHY", "MCU", "NOC", "DSP", "CPU", "GPU")
SEEDS = (2, 7, 19)


@functools.lru_cache(maxsize=None)
def _netlist(design: str):
    netlist = synthesize(design_profile(design), make_default_library(),
                         effort=0.5, seed=17)
    return netlist, make_floorplan(netlist, utilization=0.7)


@functools.lru_cache(maxsize=None)
def _placed(design: str, seed: int) -> Placement:
    netlist, fp = _netlist(design)
    return QuadraticPlacer().place(netlist, fp, seed=seed)


def _assert_power_equal(fast, reference):
    assert (fast.dynamic, fast.leakage, fast.clock) == \
        (reference.dynamic, reference.leakage, reference.clock)
    assert type(fast.dynamic) is float


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_power_and_ir_drop_match_reference(design, seed):
    placement = _placed(design, seed)
    netlist = placement.netlist
    for frequency in (0.8, 1.7):
        for activity in (0.15, 0.6):
            fast = estimate_power(netlist, placement, frequency, activity)
            reference = reference_estimate_power(netlist, placement, frequency, activity)
            _assert_power_equal(fast, reference)
    for grid in (16, 8, 5):
        fast = estimate_power(netlist, placement)
        reference = reference_estimate_power(netlist, placement)
        drop = ir_drop_analysis(netlist, placement, fast, grid=grid)
        want = reference_ir_drop_analysis(netlist, placement, reference, grid=grid)
        assert np.array_equal(drop, want)
        assert fast.worst_ir_drop == reference.worst_ir_drop


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("seed", SEEDS)
def test_density_and_hpwl_match_reference(design, seed):
    placement = _placed(design, seed)
    for nx, ny in ((16, 16), (8, 8), (5, 5), (7, 11)):
        assert np.array_equal(placement.density_map(nx, ny),
                              reference_density_map(placement, nx, ny))
    nets = list(placement.netlist.nets)  # the clock net included
    assert placement.net_lengths(nets).tolist() == \
        [reference_net_length(placement, name) for name in nets]
    assert placement.net_length(nets[-1]) == reference_net_length(placement, nets[-1])
    assert placement.hpwl() == reference_hpwl(placement)


@pytest.mark.parametrize("design", ("PHY", "GPU"))
def test_power_without_placement_matches_reference(design):
    netlist, _ = _netlist(design)
    for frequency in (0.8, 1.7):
        for activity in (0.15, 0.6):
            _assert_power_equal(estimate_power(netlist, None, frequency, activity),
                                reference_estimate_power(netlist, None, frequency, activity))


def test_zero_density_branch_matches_reference():
    """An empty placement has no cell area: both kernels return zeros."""
    netlist, fp = _netlist("PHY")
    empty = Placement(netlist, fp, {})
    assert np.array_equal(empty.density_map(6, 4), reference_density_map(empty, 6, 4))
    fast = estimate_power(netlist, None)
    reference = reference_estimate_power(netlist, None)
    drop = ir_drop_analysis(netlist, empty, fast, grid=8)
    assert np.array_equal(drop, reference_ir_drop_analysis(netlist, empty, reference, grid=8))
    assert not drop.any()
    assert fast.worst_ir_drop == reference.worst_ir_drop == 0.0
