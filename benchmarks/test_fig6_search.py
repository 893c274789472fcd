"""Figure 6: go-with-the-winners and adaptive multistart.

Paper shape: (a) GWTW — cloning the most promising threads while
terminating others matches or beats independent threads at equal move
budget; (b) adaptive multistart — local minima of the bisection
landscape show "big valley" structure (cost correlates with distance to
the best minimum), and consensus-derived starts beat random starts at
equal local-search budget.
"""

import numpy as np
from conftest import print_header

from repro.core.search import BisectionProblem, big_valley_correlation
from repro.dse import DSEEngine

N_SEEDS = 8


def _problem():
    return BisectionProblem.random_community(
        n_nodes=128, n_communities=16, p_in=0.55, p_out=0.08, seed=3
    )


def test_fig6a_gwtw(benchmark):
    problem = _problem()

    budget = {"n_threads": 8, "n_stages": 16, "steps_per_stage": 25}
    gwtw = DSEEngine(strategy="gwtw", params=budget)
    plain = DSEEngine(strategy="independent", params=budget)

    def run_pair(seed):
        return (gwtw.run(problem, seed=seed).best_score,
                plain.run(problem, seed=seed).best_score)

    first = benchmark.pedantic(run_pair, args=(0,), rounds=1, iterations=1)
    pairs = [first] + [run_pair(seed) for seed in range(1, N_SEEDS)]
    gwtw_costs = [p[0] for p in pairs]
    plain_costs = [p[1] for p in pairs]

    print_header("Figure 6(a): GWTW vs independent multistart (cut cost)")
    print(f"{'seed':>5} {'GWTW':>8} {'independent':>12}")
    for seed, (g, p) in enumerate(pairs):
        print(f"{seed:>5} {g:>8.0f} {p:>12.0f}")
    print(f"\nmean: GWTW {np.mean(gwtw_costs):.1f} vs "
          f"independent {np.mean(plain_costs):.1f} (same move budget)")

    assert np.mean(gwtw_costs) <= np.mean(plain_costs) + 1.5


def test_fig6b_adaptive_multistart(benchmark):
    problem = _problem()

    corr, minima, costs = benchmark.pedantic(
        big_valley_correlation, args=(problem,),
        kwargs={"n_starts": 50, "seed": 4}, rounds=1, iterations=1,
    )

    print_header("Figure 6(b): big-valley structure and adaptive multistart")
    best = minima[int(np.argmin(costs))]
    print("local minima: cost vs distance-to-best (sample)")
    order = np.argsort(costs)
    for idx in order[::10]:
        print(f"  cost={costs[idx]:>6.0f}  distance={problem.distance(minima[idx], best):>4}")
    print(f"\nbig-valley correlation corr(cost, distance) = {corr:.2f}")

    ams = DSEEngine(strategy="multistart", params={
        "n_initial": 12, "n_adaptive_rounds": 4, "starts_per_round": 4})
    budget = 12 + 4 * 4
    rms = DSEEngine(strategy="random", params={"n_starts": budget})
    adaptive = [ams.run(problem, seed=s).best_score for s in range(N_SEEDS)]
    random_ = [rms.run(problem, seed=s).best_score for s in range(N_SEEDS)]
    print(f"adaptive multistart best (mean over {N_SEEDS} seeds): {np.mean(adaptive):.1f}")
    print(f"random multistart best   (same {budget}-search budget): {np.mean(random_):.1f}")

    assert corr > 0.2  # the big valley exists
    assert np.mean(adaptive) <= np.mean(random_) + 1.0
