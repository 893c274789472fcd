"""Landscape-strategy guards: the live annealing kernels must behave
like their frozen references in ``tests/eda/search_reference.py`` (the
only guard on them: an edit that moves a draw or a float fails here),
and the strategies keep their parameter-validation messages.
"""

import numpy as np
import pytest

from repro.core.search import BisectionProblem
from repro.dse import DSEEngine
from repro.dse.strategies import landscape as live
from tests.eda import search_reference as frozen


@pytest.fixture(scope="module")
def problem():
    return BisectionProblem.random_community(
        n_nodes=64, n_communities=8, p_in=0.6, p_out=0.06, seed=1
    )


# ------------------------------------------------- parameter validation
def test_legacy_validation_messages_survive(problem):
    """The strategies validate their params when the campaign runs."""
    with pytest.raises(ValueError, match="GWTW needs at least 2 threads"):
        DSEEngine(strategy="gwtw", params={"n_threads": 1}).run(problem)
    with pytest.raises(ValueError, match="survivor_fraction"):
        DSEEngine(strategy="gwtw",
                  params={"survivor_fraction": 1.5}).run(problem)
    with pytest.raises(ValueError, match="at least 1 start"):
        DSEEngine(strategy="random", params={"n_starts": 0}).run(problem)


# ----------------------------------------- live kernels == frozen refs
def test_anneal_steps_matches_frozen_reference(problem):
    def run(module):
        rng = np.random.default_rng(13)
        assign = problem.random_solution(rng)
        thread = module._Thread(assign.copy(), problem.cost(assign), 3.0)
        module._anneal_steps(problem, thread, 80, rng, 0.97)
        return thread

    a, b = run(live), run(frozen)
    assert a.cost == b.cost
    assert a.temperature == b.temperature
    assert np.array_equal(a.assign, b.assign)


def test_consensus_start_matches_frozen_reference(problem):
    rng = np.random.default_rng(21)
    elite = [problem.random_solution(rng) for _ in range(4)]
    live_start = live._consensus_start(problem, elite,
                                       np.random.default_rng(2))
    frozen_start = frozen._consensus_start(problem, elite,
                                           np.random.default_rng(2))
    assert np.array_equal(live_start, frozen_start)
    assert problem.is_balanced(live_start)


def test_rebalance_matches_frozen_reference(problem):
    skewed = np.zeros(problem.n_nodes, dtype=bool)
    skewed[: problem.n_nodes * 3 // 4] = True
    live_fix = live._rebalance(problem, skewed, np.random.default_rng(8))
    frozen_fix = frozen._rebalance(problem, skewed, np.random.default_rng(8))
    assert np.array_equal(live_fix, frozen_fix)
    assert problem.is_balanced(live_fix)
