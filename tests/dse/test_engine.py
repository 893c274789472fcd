"""DSEEngine: strategy registry, result normalization, failure accounting,
dse.* reporting."""

import numpy as np
import pytest

from repro.core.bandit import (
    FlowArmEnvironment,
    SyntheticBanditEnvironment,
    ThompsonSampling,
)
from repro.core.orchestration import FlowOptionTree, FlowStepOptions
from repro.core.parallel import FlowExecutionError, FlowExecutor
from repro.core.search import BisectionProblem
from repro.dse import DSEEngine, available_strategies
from repro.dse.registry import get_strategy, load_builtin_strategies
from repro.eda.flow import FlowOptions
from repro.metrics import MetricsCollector, MetricsServer
from repro.metrics.schema import DSE_CAMPAIGN_METRICS


def test_builtin_strategies_are_registered():
    load_builtin_strategies()
    names = available_strategies()
    assert {"explorer", "bandit", "sweep", "gwtw", "independent",
            "multistart", "random", "miner"} <= set(names)
    assert names == sorted(names)


def test_unknown_strategy_rejected():
    with pytest.raises(KeyError, match="no strategy registered"):
        DSEEngine(strategy="hill_climbing")
    with pytest.raises(KeyError, match="no strategy registered"):
        get_strategy("hill_climbing")


def test_engine_runs_explorer_without_explicit_executor(small_spec):
    result = DSEEngine(
        strategy="explorer", params={"n_rounds": 1, "n_concurrent": 2},
    ).run(small_spec, seed=3)
    assert result.method == "explorer"
    assert result.n_runs == 2
    assert result.best_result is not None
    assert result.runtime_proxy_executed > 0


def test_engine_searches_the_tree_it_is_given(small_spec):
    """The space is the tree itself: a sweep runs every trajectory of a
    two-trajectory tree, and an explorer draws only from its menu."""
    tree = FlowOptionTree([FlowStepOptions("synth", {"target_clock_ghz": [0.4, 0.45]})])
    sweep = DSEEngine(space=tree, strategy="sweep",
                      params={"n_concurrent": 2}).run(small_spec, seed=3)
    assert sweep.n_runs == 2
    explorer = DSEEngine(space=tree, strategy="explorer",
                         params={"n_rounds": 1, "n_concurrent": 2}).run(small_spec, seed=3)
    for result in (sweep, explorer):
        assert result.best_result.options == FlowOptions(
            target_clock_ghz=result.best_result.options.target_clock_ghz)
        assert result.best_result.options.target_clock_ghz in (0.4, 0.45)


def test_engine_runs_landscape_strategy():
    problem = BisectionProblem.random_community(
        n_nodes=48, n_communities=6, p_in=0.6, p_out=0.06, seed=1
    )
    result = DSEEngine(
        strategy="gwtw",
        params={"n_threads": 4, "n_stages": 3, "steps_per_stage": 20},
    ).run(problem, seed=2)
    assert result.method == "gwtw"
    assert np.isfinite(result.best_score)
    assert result.best_assign is not None
    assert result.total_moves == 4 * 3 * 20


class _CrashingProblem(BisectionProblem):
    """Local search crashes on every start with node 0 on side True
    (module level so a process pool could pickle it)."""

    def local_search(self, start, rng):
        if start[0]:
            raise RuntimeError("injected local-search crash")
        return super().local_search(start, rng)


MULTISTART_CAMPAIGNS = [
    ("random", {"n_starts": 8}),
    ("multistart", {"n_initial": 4, "n_adaptive_rounds": 2,
                    "starts_per_round": 2, "elite_size": 2}),
]


def _crashing_campaign(strategy, params, seed):
    problem = _CrashingProblem.random_community(
        n_nodes=48, n_communities=6, p_in=0.6, p_out=0.06, seed=1
    )
    with FlowExecutor(n_workers=1, cache=None, max_retries=0) as executor:
        return DSEEngine(strategy=strategy, executor=executor,
                         params=params).run(problem, seed=seed)


@pytest.mark.parametrize("strategy,params", MULTISTART_CAMPAIGNS)
def test_failed_local_searches_are_counted(strategy, params):
    result = _crashing_campaign(strategy, params, seed=0)
    assert result.n_runs == 8
    assert 0 < result.n_failed < result.n_runs
    assert result.n_runs == len(result.all_scores) + result.n_failed
    assert len(result.failures) == result.n_failed
    assert all(isinstance(f, FlowExecutionError) for f in result.failures)
    assert result.best_score == min(result.all_scores)


@pytest.mark.parametrize("strategy,params", MULTISTART_CAMPAIGNS)
def test_all_initial_searches_failing_is_a_typed_error(strategy, params):
    # at seed 5 every initial start puts node 0 on side True
    with pytest.raises(RuntimeError, match="every local search failed"):
        _crashing_campaign(strategy, params, seed=5)


def _collect_bandit_campaign(env, seed):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            DSEEngine(
                strategy="bandit", executor=executor,
                params={"n_iterations": 1, "n_concurrent": 2},
            ).run((ThompsonSampling(2, seed=4), env), seed=seed)
        collector.flush()
    return server


def test_bandit_campaign_reports_the_executed_work(small_spec):
    """The engine reads the executor's executed-work delta for every
    strategy, the bandit included."""
    env = FlowArmEnvironment(small_spec, [0.6, 0.8], seed=0)
    with FlowExecutor(n_workers=1, cache=None) as executor:
        executor.run_one(small_spec, env.base_options, 99)  # work before the campaign
        before = executor.stats.runtime_proxy_executed
        result = DSEEngine(
            strategy="bandit", executor=executor,
            params={"n_iterations": 2, "n_concurrent": 2},
        ).run((ThompsonSampling(2, seed=1), env))
    delta = executor.stats.runtime_proxy_executed - before
    assert result.runtime_proxy_executed == delta > 0
    assert delta == pytest.approx(result.total_runtime_proxy)  # no cache


def test_bandit_summary_lands_under_the_env_design(small_spec):
    server = _collect_bandit_campaign(
        FlowArmEnvironment(small_spec, [0.5, 0.7], seed=3), seed=5)
    runs = server.runs(small_spec.name)
    assert "dse-bandit-5" in runs
    assert len(runs) == 3  # two flow runs and the campaign summary
    assert server.runs("landscape") == []
    assert server.run_vector("dse-bandit-5")["dse.runs"] == 2
    # an environment without a spec keeps the generic design name
    env = SyntheticBanditEnvironment([0.4, 0.8], seed=1)
    with pytest.warns(RuntimeWarning, match="executor is ignored"):
        server = _collect_bandit_campaign(env, seed=5)
    assert server.runs("landscape") == ["dse-bandit-5"]


def test_campaign_summary_lands_in_metrics_server(small_spec):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="explorer", executor=executor,
                params={"n_rounds": 1, "n_concurrent": 2},
            ).run(small_spec, seed=8)
        collector.flush()
    vector = server.run_vector("dse-explorer-8")
    for metric in ("dse.runs", "dse.failed", "dse.pruned", "dse.killed",
                   "dse.kill_proxy_saved", "dse.runtime_proxy",
                   "dse.best_score"):
        assert metric in vector
    assert vector["dse.runs"] == result.n_runs == 2
    assert vector["dse.best_score"] == pytest.approx(result.best_score)
    assert vector["dse.killed"] == 0.0  # no kill policy on this campaign
    assert set(vector) - {"dse.surrogate_fit"} >= set(DSE_CAMPAIGN_METRICS) - {
        "dse.surrogate_fit"
    }


def test_no_collector_means_no_reporting(small_spec):
    with FlowExecutor(n_workers=1, cache=None) as executor:
        result = DSEEngine(
            strategy="explorer", executor=executor,
            params={"n_rounds": 1, "n_concurrent": 2},
        ).run(small_spec, seed=8)
    assert result.n_runs == 2  # reporting is optional, the campaign is not


def test_miner_reads_a_server_that_holds_a_campaign():
    """A campaign files its dse-* summary under the design; the miner
    still mines the campaign's flow runs."""
    from repro.bench.generators import design_profile
    from repro.metrics import DataMiner

    spec = design_profile("PHY")
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, collector=collector) as executor:
            DSEEngine(strategy="explorer", executor=executor,
                      params={"n_rounds": 3, "n_concurrent": 4}).run(spec, seed=1)
        collector.flush()
    assert len(server.runs(spec.name)) == 13
    assert "dse-explorer-1" in server.runs(spec.name)
    advice = DataMiner(server, seed=0).recommend_options(design=spec.name)
    assert np.isfinite(advice.predicted_objective)
    assert len(advice.options) == 6
