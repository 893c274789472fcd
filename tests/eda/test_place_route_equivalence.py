"""Placement/routing kernels vs the frozen scalar references.

For every kernel the live struct-of-arrays implementation and the
frozen post-bugfix reference (``tests/eda/placement_reference.py`` /
``routing_reference.py``) must agree **bitwise** — positions, HPWL,
demand grids, congestion maps, and DRV trajectories — across three
designs (one with a macro) and three seeds, with and without net-weight
overlays, off-square gcell grids, negotiation rounds from 0 to 5, and
non-default detailed-router knobs under a kill-policy
``stop_callback``, run fresh and resumed from the trajectories earlier
runs left.  The placer is also checked on the PHY benchmark
profile (451 instances, several legalizer blocks) and on a high-fanout
design whose nets exceed the clique cap.  The references are the only
oracle: there is no second live copy of any kernel.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from repro.bench.generators import design_profile
from repro.eda.floorplan import Macro, make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import (
    _CLIQUE_CAP,
    _LEGALIZE_BLOCK,
    AnnealingRefiner,
    QuadraticPlacer,
)
from repro.eda.routing import DetailedRouter, GlobalRouter
from repro.eda.synthesis import DesignSpec, synthesize

from .placement_reference import ReferenceAnnealingRefiner, ReferenceQuadraticPlacer
from .routing_reference import ReferenceDetailedRouter, ReferenceGlobalRouter

SEEDS = (3, 11, 29)

SPECS = {
    "logic": DesignSpec(name="logic", n_gates=110, n_flops=14, n_inputs=8,
                        n_outputs=8, depth=9, locality=0.8),
    "datapath": DesignSpec(name="datapath", n_gates=170, n_flops=24, n_inputs=12,
                           n_outputs=10, depth=12, locality=0.55),
    "macroized": DesignSpec(name="macroized", n_gates=140, n_flops=18, n_inputs=10,
                            n_outputs=6, depth=10, locality=0.7),
}

#: the placer's designs add a benchmark profile and a high-fanout cloud
#: (few sources, short reach: 8 nets above ``_CLIQUE_CAP`` members)
PLACER_SPECS = {
    **SPECS,
    "phy": design_profile("PHY"),
    "fanout": DesignSpec(name="fanout", n_gates=260, n_flops=4, n_inputs=4,
                         n_outputs=4, depth=6, locality=0.1),
}


@functools.lru_cache(maxsize=None)
def _floorplanned(design: str):
    netlist = synthesize(PLACER_SPECS[design], make_default_library(), effort=0.5, seed=17)
    fp = make_floorplan(netlist, utilization=0.7)
    if design == "macroized":
        fp.add_macro(Macro("ram", x=fp.width * 0.15, y=fp.height * 0.2,
                           width=fp.width * 0.25, height=fp.height * 0.3))
    return netlist, fp


@functools.lru_cache(maxsize=None)
def _placed(design: str, seed: int):
    """One legalized placement per (design, seed), placed by the live placer."""
    netlist, fp = _floorplanned(design)
    return QuadraticPlacer().place(netlist, fp, seed=seed)


@functools.lru_cache(maxsize=None)
def _congestion(design: str, seed: int, tracks: float):
    """The gcell congestion map the detailed router starts from."""
    placement = _placed(design, seed)
    return GlobalRouter(tracks_per_um=tracks).route(placement, seed=seed).congestion_map()


def _weights(netlist):
    """A deterministic non-trivial net-weight overlay."""
    return {name: 1.0 + 0.5 * (i % 4)
            for i, name in enumerate(netlist.nets) if i % 3 == 0}


def _positions_equal(a, b):
    assert set(a.positions) == set(b.positions)
    for name, pos in a.positions.items():
        assert pos == b.positions[name], name


def _assert_groute_equal(fast, reference):
    assert np.array_equal(fast.demand_h, reference.demand_h)
    assert np.array_equal(fast.demand_v, reference.demand_v)
    assert fast.wirelength == reference.wirelength
    assert fast.capacity_h == reference.capacity_h
    assert fast.capacity_v == reference.capacity_v
    assert np.array_equal(fast.congestion_map(), reference.congestion_map())
    assert fast.overflow == reference.overflow
    assert fast.max_congestion == reference.max_congestion


def _assert_droute_equal(fast, reference):
    assert fast.drvs_per_iteration == reference.drvs_per_iteration
    assert (fast.success, fast.iterations_run, fast.stopped_early) == \
        (reference.success, reference.iterations_run, reference.stopped_early)
    assert fast.metadata == reference.metadata


# ----------------------------------------------------------------- placer
@pytest.mark.parametrize("design", sorted(PLACER_SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_placer_triple_equivalence(design, seed):
    netlist, fp = _floorplanned(design)
    fast = QuadraticPlacer().place(netlist, fp, seed=seed)
    reference = ReferenceQuadraticPlacer().place(netlist, fp, seed=seed)
    _positions_equal(fast, reference)
    assert fast.hpwl() == reference.hpwl()
    fast.validate()


# --------------------------------------------------------------- annealer
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("weighted", (False, True))
def test_annealer_triple_equivalence(design, seed, weighted):
    base = _placed(design, seed)
    weights = _weights(base.netlist) if weighted else None
    p_fast = copy.deepcopy(base)
    p_ref = copy.deepcopy(base)
    fast = AnnealingRefiner(moves_per_cell=8)
    reference = ReferenceAnnealingRefiner(moves_per_cell=8)
    h_fast = fast.refine(p_fast, seed=seed + 1, net_weights=weights)
    h_ref = reference.refine(p_ref, seed=seed + 1, net_weights=weights)
    assert h_fast == h_ref
    _positions_equal(p_fast, p_ref)
    # the evaluated temperature schedules agree too
    assert fast.last_schedule.first_temperature == reference.last_first_temperature
    assert fast.last_schedule.last_temperature == reference.last_last_temperature
    assert fast.last_schedule.n_evaluated == reference.last_n_evaluated


# ----------------------------------------------------------- global route
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tracks", (16.0, 6.0))
def test_groute_triple_equivalence(design, seed, tracks):
    placement = _placed(design, seed)
    _assert_groute_equal(
        GlobalRouter(tracks_per_um=tracks).route(placement, seed=seed),
        ReferenceGlobalRouter(tracks_per_um=tracks).route(placement, seed=seed),
    )


@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("rounds", (0, 5))
def test_groute_negotiation_rounds_equivalence(design, rounds):
    """No rip-up at all, and more rounds than the default: the batched
    tie bits are consumed in the per-tie draw order either way."""
    for seed in SEEDS:
        placement = _placed(design, seed)
        _assert_groute_equal(
            GlobalRouter(negotiation_rounds=rounds, tracks_per_um=6.0).route(placement, seed=seed),
            ReferenceGlobalRouter(negotiation_rounds=rounds,
                                  tracks_per_um=6.0).route(placement, seed=seed),
        )


def test_placer_designs_cover_capped_cliques_and_blocks():
    """The placer's designs exercise what the COO assembly and the
    blocked legalizer must get right: nets sampled down to the clique
    cap, and more cells than one legalizer block."""
    for design in ("phy", "fanout"):
        netlist, _ = _floorplanned(design)
        assert len(netlist.instances) > 4 * _LEGALIZE_BLOCK
    capped = sum(len({net.driver, *(s for s, _ in net.sinks)} - {None}) > _CLIQUE_CAP
                 for name, net in netlist.nets.items() if name != netlist.clock_net)
    assert capped >= 5


def _rip_up_visits(design: str, seed: int, tracks: float):
    """Replay the default negotiation the way the frozen reference runs
    it (rip up, price both Ls, commit the cheaper) and count each kind
    of rip-up visit.  Returns the counts and the demand grids."""
    placement = _placed(design, seed)
    router = GlobalRouter(tracks_per_um=tracks)
    penalty = router.overflow_penalty
    fp = placement.floorplan
    cap_h = tracks * fp.height / router.ny
    cap_v = tracks * fp.width / router.nx
    segments = router._segments(placement)
    demand_h = np.zeros((router.ny, router.nx - 1))
    demand_v = np.zeros((router.ny - 1, router.nx))
    bits = iter(np.random.default_rng(seed).integers(
        0, 2, size=len(segments) * (1 + router.negotiation_rounds)).tolist())

    def runs(seg, hf):
        """The L's horizontal and vertical edges, in pricing order."""
        ia, ja, ib, jb = seg
        across = [(ja if hf else jb, i) for i in range(min(ia, ib), max(ia, ib))]
        down = [(j, ib if hf else ia) for j in range(min(ja, jb), max(ja, jb))]
        h = (demand_h, across, cap_h)
        v = (demand_v, down, cap_v)
        return (h, v) if hf else (v, h)

    def cost(seg, hf):
        total = 0.0
        for grid, edges, cap in runs(seg, hf):
            over = 0.0
            for edge in edges:
                over += max(0.0, grid[edge] + 1.0 - cap)
            total += len(edges) + penalty * over
        return total

    def commit(seg, hf, sign):
        for grid, edges, _ in runs(seg, hf):
            for edge in edges:
                grid[edge] += sign

    def choose(seg):
        c_hf, c_vf = cost(seg, True), cost(seg, False)
        if abs(c_hf - c_vf) < 1e-9:
            return next(bits) == 1, True
        return c_hf < c_vf, False

    kinds = dict.fromkeys(("straight", "kept", "flipped", "bent tie"), 0)
    choice = []
    for seg in segments:
        hf, _ = choose(seg)
        commit(seg, hf, +1.0)
        choice.append(hf)
    for _ in range(router.negotiation_rounds):
        for s, seg in enumerate(segments):
            commit(seg, choice[s], -1.0)
            hf, tie = choose(seg)
            commit(seg, hf, +1.0)
            ia, ja, ib, jb = seg
            if ia == ib or ja == jb:
                kinds["straight"] += 1
            else:
                kinds["kept" if hf == choice[s] else "flipped"] += 1
                kinds["bent tie"] += tie
            choice[s] = hf
    return kinds, demand_h, demand_v


def test_groute_designs_cover_every_rip_up_visit():
    """At 6 tracks/um the equivalence designs reach every branch of a
    rip-up pass: straight segments (one path, a tie bit only), bent
    segments that keep their L, bent segments that flip, and bent ties.
    The replay that counts them ends on the router's demand grids."""
    totals = dict.fromkeys(("straight", "kept", "flipped", "bent tie"), 0)
    for design in sorted(SPECS):
        for seed in SEEDS:
            kinds, demand_h, demand_v = _rip_up_visits(design, seed, 6.0)
            routed = GlobalRouter(tracks_per_um=6.0).route(_placed(design, seed), seed=seed)
            assert np.array_equal(demand_h, routed.demand_h)
            assert np.array_equal(demand_v, routed.demand_v)
            for kind, n in kinds.items():
                totals[kind] += n
    assert min(totals.values()) > 0, totals


def test_groute_segments_identical_on_nondefault_grid():
    """The lexsort segment build (and the negotiation over it) matches
    the per-net reference off-square too, on 9x21 and 11x13 grids."""
    for design in sorted(SPECS):
        placement = _placed(design, 3)
        for nx, ny in ((9, 21), (11, 13)):
            _assert_groute_equal(
                GlobalRouter(nx=nx, ny=ny).route(placement, seed=3),
                ReferenceGlobalRouter(nx=nx, ny=ny).route(placement, seed=3),
            )


# --------------------------------------------------------- detailed route
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_droute_triple_equivalence(design, seed):
    congestion = _congestion(design, seed, 7.0)
    _assert_droute_equal(
        DetailedRouter().route(congestion, seed=seed),
        ReferenceDetailedRouter().route(congestion, seed=seed),
    )


def _stop_when_drvs_rise(history):
    """A kill policy in miniature: stop as soon as an iteration adds DRVs."""
    return len(history) > 1 and history[-1] > history[-2]


DROUTE_KNOBS = (
    {},
    {"effort": 0.3, "shock_prob": 1.0, "max_iterations": 35},
    {"effort": 1.0, "shock_prob": 0.0, "spill_rate": 0.9},
)


@pytest.mark.parametrize("knobs", DROUTE_KNOBS, ids=("default", "shocky", "spilly"))
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_droute_equivalence_with_stop_callback(design, seed, knobs):
    """Non-default knobs and the kill-policy path stop identically."""
    congestion = _congestion(design, seed, 5.0)
    _assert_droute_equal(
        DetailedRouter(**knobs).route(congestion, seed=seed,
                                      stop_callback=_stop_when_drvs_rise),
        ReferenceDetailedRouter(**knobs).route(congestion, seed=seed,
                                               stop_callback=_stop_when_drvs_rise),
    )


def test_droute_stop_callback_cases_do_stop_early():
    """The callback cases above exercise the early-stop branch, not only
    full-length runs."""
    stopped = 0
    for knobs in DROUTE_KNOBS:
        for design in sorted(SPECS):
            for seed in SEEDS:
                result = DetailedRouter(**knobs).route(
                    _congestion(design, seed, 5.0), seed=seed,
                    stop_callback=_stop_when_drvs_rise)
                stopped += result.stopped_early
    assert 0 < stopped < len(DROUTE_KNOBS) * len(SPECS) * len(SEEDS)


#: gcell tracks of a map every run but the shocky one routes clean on
CLEAN_TRACKS = 16.0


def _recorder(callback, calls):
    """``callback``, also appending each history it is handed to ``calls``."""
    if callback is None:
        return None

    def record(history):
        calls.append(list(history))
        return callback(history)

    return record


def _leavers(knobs, congestion, seed):
    """Trajectories earlier runs left on ``congestion``, by how they
    ended: a shorter cap, a longer cap (on a clean map, at 0 DRVs), and
    a longer cap whose stop_callback ended it."""
    cap = knobs.get("max_iterations", 20)
    leavers = {}
    for name, leaver_cap, callback in (("shorter", max(1, cap // 4), None),
                                       ("longer", cap + 10, None),
                                       ("killed", cap + 10, _stop_when_drvs_rise)):
        router = DetailedRouter(**{**knobs, "max_iterations": leaver_cap})
        trajectory = router.start(congestion, seed)
        leavers[name] = (trajectory, router.route(congestion, seed, callback,
                                                  trajectory=trajectory))
    return leavers


@pytest.mark.parametrize("knobs", DROUTE_KNOBS, ids=("default", "shocky", "spilly"))
@pytest.mark.parametrize("design", sorted(SPECS))
@pytest.mark.parametrize("seed", SEEDS)
def test_droute_resumed_from_any_trajectory_equals_a_fresh_run(design, seed, knobs):
    """A run resumed from the trajectory an earlier run left equals a
    fresh run and the reference field for field, hands its
    stop_callback the same histories, and leaves the trajectory a
    prefix-extension of the one it resumed."""
    for tracks in (5.0, CLEAN_TRACKS):
        congestion = _congestion(design, seed, tracks)
        leavers = _leavers(knobs, congestion, seed)
        for callback in (None, _stop_when_drvs_rise):
            want_calls, ref_calls = [], []
            want = DetailedRouter(**knobs).route(
                congestion, seed=seed, stop_callback=_recorder(callback, want_calls))
            _assert_droute_equal(want, ReferenceDetailedRouter(**knobs).route(
                congestion, seed=seed, stop_callback=_recorder(callback, ref_calls)))
            assert ref_calls == want_calls
            for name, (left, _) in leavers.items():
                trajectory = copy.deepcopy(left)
                calls = []
                got = DetailedRouter(**knobs).route(
                    congestion, seed=seed, stop_callback=_recorder(callback, calls),
                    trajectory=trajectory)
                assert got == want, (tracks, name)
                assert calls == want_calls, (tracks, name)
                assert trajectory.history[:len(left.history)] == left.history
                assert trajectory.history[:len(want.drvs_per_iteration)] == \
                    want.drvs_per_iteration


def test_droute_resume_cases_cover_every_way_a_run_ends():
    """The leavers above include runs that routed clean, runs their
    callback ended, and runs cut by their cap on both sides of the
    resumed run's cap."""
    ends = set()
    for knobs in DROUTE_KNOBS:
        cap = knobs.get("max_iterations", 20)
        for design in sorted(SPECS):
            for seed in SEEDS:
                for tracks in (5.0, CLEAN_TRACKS):
                    for name, (_, result) in _leavers(
                            knobs, _congestion(design, seed, tracks), seed).items():
                        if result.stopped_early:
                            ends.add("killed")
                        elif result.final_drvs == 0:
                            ends.add("clean")
                        elif result.iterations_run < cap:
                            ends.add("shorter cap")
                        elif result.iterations_run > cap:
                            ends.add("longer cap")
    assert ends == {"killed", "clean", "shorter cap", "longer cap"}
