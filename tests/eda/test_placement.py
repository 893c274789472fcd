"""Placement: legality, quality, annealer behaviour."""

import copy

import numpy as np
import pytest

from repro.eda.floorplan import make_floorplan
from repro.eda.placement import (
    AnnealingRefiner,
    AnnealSchedule,
    Placement,
    QuadraticPlacer,
)

from .placement_reference import ReferenceAnnealingRefiner


def test_placement_is_legal(small_placement):
    small_placement.validate()


def test_all_instances_placed(small_netlist, small_placement):
    assert set(small_placement.positions) == set(small_netlist.instances)


def test_no_two_cells_share_a_site(small_placement):
    positions = list(small_placement.positions.values())
    assert len(set(positions)) == len(positions)


def test_hpwl_positive_and_finite(small_placement):
    hpwl = small_placement.hpwl()
    assert np.isfinite(hpwl) and hpwl > 0


def test_quadratic_beats_random_placement(small_netlist, small_floorplan, rng):
    qp = QuadraticPlacer().place(small_netlist, small_floorplan, seed=1)
    random_positions = {
        name: (
            float(rng.uniform(0, small_floorplan.width)),
            float(rng.uniform(0, small_floorplan.height)),
        )
        for name in small_netlist.instances
    }
    random_pl = Placement(small_netlist, small_floorplan, random_positions)
    assert qp.hpwl() < random_pl.hpwl()


def test_annealer_improves_hpwl(small_netlist, small_floorplan):
    pl = QuadraticPlacer().place(small_netlist, small_floorplan, seed=2)
    before = pl.hpwl()
    after = AnnealingRefiner(moves_per_cell=15).refine(pl, seed=3)
    assert after <= before
    assert after == pytest.approx(pl.hpwl())
    pl.validate()


def test_annealer_seed_dependence(small_netlist, small_floorplan):
    """Different seeds land in different solutions: the noise source."""
    results = set()
    for seed in range(3):
        pl = QuadraticPlacer().place(small_netlist, small_floorplan, seed=7)
        results.add(round(AnnealingRefiner(moves_per_cell=10).refine(pl, seed=seed), 6))
    assert len(results) > 1


def test_annealer_deterministic_given_seed(small_netlist, small_floorplan):
    outs = []
    for _ in range(2):
        pl = QuadraticPlacer().place(small_netlist, small_floorplan, seed=7)
        outs.append(AnnealingRefiner(moves_per_cell=10).refine(pl, seed=5))
    assert outs[0] == outs[1]


def test_net_length_consistency(small_placement):
    total = sum(
        small_placement.net_length(n)
        for n in small_placement.netlist.nets
        if n != small_placement.netlist.clock_net
    )
    assert total == pytest.approx(small_placement.hpwl(), rel=1e-9)


def test_density_map_sums_to_total_area(small_netlist, small_placement):
    grid = small_placement.density_map(8, 8)
    fp = small_placement.floorplan
    bin_area = (fp.width / 8) * (fp.height / 8)
    assert grid.sum() * bin_area == pytest.approx(small_netlist.total_area, rel=1e-6)


def test_density_map_validation(small_placement):
    with pytest.raises(ValueError):
        small_placement.density_map(0, 4)


def test_validate_catches_missing_instance(small_netlist, small_floorplan):
    pl = Placement(small_netlist, small_floorplan, {})
    with pytest.raises(ValueError):
        pl.validate()


def test_validate_catches_off_core(small_netlist, small_floorplan):
    pl = QuadraticPlacer().place(small_netlist, small_floorplan, seed=1)
    name = next(iter(pl.positions))
    pl.positions[name] = (-5.0, 0.0)
    with pytest.raises(ValueError):
        pl.validate()


def test_spread_strength_validation():
    with pytest.raises(ValueError):
        QuadraticPlacer(spread_strength=1.5)


def test_annealer_validation():
    with pytest.raises(ValueError):
        AnnealingRefiner(moves_per_cell=0)


def test_clock_net_excluded_from_hpwl(small_netlist, small_placement):
    """The clock net reaches every flop; HPWL must not count it."""
    clock = small_netlist.clock_net
    assert clock is not None
    assert small_placement.net_length(clock) >= 0.0  # can be queried
    # but the total excludes it
    with_clock = small_placement.hpwl() + small_placement.net_length(clock)
    assert with_clock > small_placement.hpwl()


# ---------------------------------------------------------------------------
# Anneal cooling schedule (the decay-after-evaluation bugfix)
# ---------------------------------------------------------------------------
def test_anneal_schedule_pins_first_and_last_temperature(
    small_netlist, small_floorplan
):
    """The first evaluated move runs at exactly t_start (the historical
    schedule decayed before the first acceptance test), the last evaluated
    move runs just above t_end, and skipped ``a == b`` draws neither
    evaluate nor cool."""
    placement = QuadraticPlacer().place(small_netlist, small_floorplan, seed=3)
    refiner = AnnealingRefiner(moves_per_cell=4, t_start=3.5, t_end=0.07)
    refiner.refine(placement, seed=11)
    sched = refiner.last_schedule
    assert sched is not None
    assert sched.first_temperature == 3.5
    n = len(small_netlist.instances)
    n_moves = 4 * n
    cool = (0.07 / 3.5) ** (1.0 / (n_moves - 1))
    # the k-th evaluated move runs at t_start * cool**(k-1); skips do not
    # cool, so the last evaluated temperature sits at or above t_end
    assert sched.last_temperature == pytest.approx(
        3.5 * cool ** (sched.n_evaluated - 1)
    )
    assert sched.last_temperature >= 0.07 * (1.0 - 1e-12)
    assert 0 < sched.n_evaluated <= n_moves


def test_anneal_schedule_identical_across_kernels(small_netlist, small_floorplan):
    """The live annealer evaluates the frozen reference's schedule."""
    base = QuadraticPlacer().place(small_netlist, small_floorplan, seed=5)
    fast = AnnealingRefiner(moves_per_cell=3)
    slow = ReferenceAnnealingRefiner(moves_per_cell=3)
    fast.refine(copy.deepcopy(base), seed=2)
    slow.refine(copy.deepcopy(base), seed=2)
    assert fast.last_schedule == AnnealSchedule(
        slow.last_first_temperature, slow.last_last_temperature,
        slow.last_n_evaluated)


# ---------------------------------------------------------------------------
# Pad-presence predicates (the ``pad is not None`` normalization)
# ---------------------------------------------------------------------------
def test_pad_presence_checks_use_is_not_none():
    """Lint-adjacent: no placement/routing/congestion code may test a pad
    by truthiness — ``(0.0, 0.0)`` is a legal pad position and must count
    as present.  Every bare ``pad`` used as a condition is a bug."""
    import ast
    import inspect

    from repro.eda import congestion, placement, routing

    def bare_pad_conditions(module):
        tree = ast.parse(inspect.getsource(module))
        hits = []
        for node in ast.walk(tree):
            tests = []
            if isinstance(node, (ast.If, ast.IfExp)):
                tests.append(node.test)
            elif isinstance(node, ast.BoolOp):
                tests.extend(node.values)
            for t in tests:
                if isinstance(t, ast.Name) and t.id == "pad":
                    hits.append(t.lineno)
        return hits

    for module in (placement, routing, congestion):
        assert bare_pad_conditions(module) == [], module.__name__
