"""GWTW, adaptive multistart, and the big-valley landscape."""

import numpy as np
import pytest

from repro.core.search import BisectionProblem, big_valley_correlation
from repro.dse import DSEEngine


def _search(problem, strategy, seed, **params):
    return DSEEngine(strategy=strategy, params=params).run(problem, seed=seed)


@pytest.fixture(scope="module")
def problem():
    return BisectionProblem.random_community(
        n_nodes=96, n_communities=12, p_in=0.6, p_out=0.06, seed=1
    )


def test_problem_from_netlist(small_netlist):
    problem = BisectionProblem.from_netlist(small_netlist)
    assert problem.n_nodes == small_netlist.n_instances
    assert problem.edges
    rng = np.random.default_rng(0)
    sol = problem.random_solution(rng)
    assert problem.is_balanced(sol)
    assert problem.cost(sol) > 0


def test_cost_counts_cut_edges():
    problem = BisectionProblem(n_nodes=4, edges=[(0, 1, 1.0), (2, 3, 1.0), (1, 2, 1.0)])
    assign = np.array([False, False, True, True])
    assert problem.cost(assign) == 1.0  # only (1,2) is cut
    assert problem.cost(~assign) == 1.0  # symmetric


def test_gain_matches_cost_delta(problem, rng):
    assign = problem.random_solution(rng)
    for node in range(0, problem.n_nodes, 17):
        before = problem.cost(assign)
        gain = problem.gain(assign, node)
        flipped = assign.copy()
        flipped[node] = ~flipped[node]
        assert problem.cost(flipped) == pytest.approx(before - gain)


def test_local_search_never_worsens(problem, rng):
    start = problem.random_solution(rng)
    improved = problem.local_search(start, rng)
    assert problem.cost(improved) <= problem.cost(start)
    assert problem.is_balanced(improved)


def test_distance_symmetry(problem, rng):
    a = problem.random_solution(rng)
    b = problem.random_solution(rng)
    assert problem.distance(a, b) == problem.distance(b, a)
    assert problem.distance(a, a) == 0
    assert problem.distance(a, ~a) == 0  # label symmetry


def test_problem_validation():
    with pytest.raises(ValueError):
        BisectionProblem(n_nodes=2, edges=[])
    with pytest.raises(ValueError):
        BisectionProblem(n_nodes=4, edges=[(0, 9, 1.0)])
    with pytest.raises(ValueError):
        BisectionProblem(n_nodes=4, edges=[(0, 1, -1.0)])


def test_big_valley_exists(problem):
    """Cost correlates with distance-to-best: the Fig 6(b) structure."""
    corr, minima, costs = big_valley_correlation(problem, n_starts=40, seed=2)
    assert corr > 0.2
    assert len(minima) == len(costs) == 40


def test_gwtw_beats_or_matches_multistart(problem):
    budget = {"n_threads": 8, "n_stages": 16, "steps_per_stage": 25}
    gwtw = [_search(problem, "gwtw", s, **budget).best_score for s in range(4)]
    plain = [_search(problem, "independent", s, **budget).best_score
             for s in range(4)]
    assert np.mean(gwtw) <= np.mean(plain) + 1.5


def test_gwtw_trace_monotone(problem):
    result = _search(problem, "gwtw", 3, n_threads=4, n_stages=6)
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.total_moves > 0
    assert problem.is_balanced(result.best_assign)


def test_gwtw_validation(problem):
    with pytest.raises(ValueError):
        _search(problem, "gwtw", 0, n_threads=1)
    with pytest.raises(ValueError):
        _search(problem, "gwtw", 0, survivor_fraction=1.0)


def test_adaptive_multistart_beats_random(problem):
    """Equal local-search budget: consensus starts find better minima."""
    ams = DSEEngine(strategy="multistart", params={
        "n_initial": 12, "n_adaptive_rounds": 4, "starts_per_round": 4})
    budget = 12 + 4 * 4
    a = [ams.run(problem, seed=s).best_score for s in range(5)]
    r = [_search(problem, "random", s, n_starts=budget).best_score
         for s in range(5)]
    assert np.mean(a) <= np.mean(r) + 1.0


def test_adaptive_multistart_bookkeeping(problem):
    result = _search(problem, "multistart", 7, n_initial=6,
                     n_adaptive_rounds=2, starts_per_round=3)
    assert result.n_runs == 6 + 2 * 3
    assert len(result.all_scores) == result.n_runs
    assert result.n_failed == 0 and result.failures == []
    assert result.best_score == min(result.all_scores)
    assert problem.is_balanced(result.best_assign)


def test_adaptive_multistart_validation(problem):
    with pytest.raises(ValueError):
        _search(problem, "multistart", 0, n_initial=1)
    with pytest.raises(ValueError):
        _search(problem, "multistart", 0, elite_size=1)
    with pytest.raises(ValueError):
        _search(problem, "random", 0, n_starts=0)
