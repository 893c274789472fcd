"""The "miner" strategy: METRICS 2.0's closed loop on the DSE engine.

The seed batch and the miner-guided runs keep the draw order of the
loop this strategy replaced, and the campaign gets the engine's
budget, summary record and accounting like every flow strategy.
"""

import numpy as np
import pytest

from repro.core.parallel import FlowExecutor
from repro.dse import Budget, DSEEngine
from repro.eda.flow import FlowOptions
from repro.metrics import InstrumentedFlow, MetricsCollector, MetricsServer, Transmitter

BASE = FlowOptions(target_clock_ghz=0.8)


def _campaign(spec, n_workers=1, server=None, objective="area", seed=4,
              budget=None, **params):
    server = MetricsServer() if server is None else server
    params.setdefault("base_options", BASE)
    with MetricsCollector(server, cross_process=n_workers > 1) as collector:
        with FlowExecutor(n_workers=n_workers, cache=None,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="miner", objective=objective, executor=executor,
                budget=budget, params=params,
            ).run(spec, seed=seed)
    return result, server


def _best(runs, attr="area"):
    """The lowest ``attr`` over the successful runs, as the loop this
    strategy replaced ranked each phase of a campaign."""
    return min((getattr(r, attr) for r in runs if r.success), default=float("inf"))


# ------------------------------------------------ moved from the session
def test_adaptive_session_improves_or_matches(small_spec):
    result, _ = _campaign(small_spec, n_seed=8, n_adaptive=3)
    assert result.best_result.area > 0
    assert result.n_runs == len(result.records) == 11
    ratio = _best(result.records[8:]) / _best(result.records[:8])
    assert ratio <= 1.1  # the loop must not make things materially worse


def test_adaptive_session_ranks_by_configured_objective(small_spec):
    """best_result must honor the objective, not hardcode area."""
    result, _ = _campaign(small_spec, objective="power", n_seed=8, n_adaptive=2)
    successes = [r for r in result.records if r.success]
    assert result.best_result.power == min(r.power for r in successes)
    assert result.best_score == result.best_result.power
    ratio = _best(result.records[8:], "power") / _best(result.records[:8], "power")
    assert ratio <= 1.1  # mining power must not make power materially worse


def test_adaptive_session_executor_matches_serial(small_spec):
    """A two-worker campaign reproduces the serial one bit-identically
    and lands worker metrics centrally."""
    serial, _ = _campaign(small_spec, n_seed=8, n_adaptive=2)
    pooled, server = _campaign(small_spec, n_workers=2, n_seed=8, n_adaptive=2)
    assert pooled.records == serial.records
    assert pooled.all_scores == serial.all_scores
    assert pooled.best_result == serial.best_result
    assert not pooled.failures
    flow_runs = [run_id for run_id in server.runs(small_spec.name)
                 if "flow.area" in server.run_vector(run_id)]
    assert len(flow_runs) == 10


def test_adaptive_session_rejects_foreign_collector(small_spec):
    """The strategy mines the executor's collector; without one it
    stops before any run."""
    with FlowExecutor(n_workers=1, cache=None) as executor:
        with pytest.raises(ValueError, match="MetricsCollector"):
            DSEEngine(strategy="miner", executor=executor,
                      params={"n_seed": 8}).run(small_spec, seed=0)
        assert executor.stats.jobs_submitted == 0


def test_adaptive_session_validation(small_spec):
    with pytest.raises(ValueError, match="at least 8 seed runs"):
        _campaign(small_spec, n_seed=4)


# ------------------------------------------------------- the strategy
def test_miner_draw_order_is_pinned(small_spec):
    """Seed point i takes five uniforms, the target scale and its run
    seed, in that order; each adaptive run then takes one run seed."""
    n_seed, n_adaptive, seed = 8, 2, 6
    result, _ = _campaign(small_spec, seed=seed, n_seed=n_seed,
                          n_adaptive=n_adaptive)
    rng = np.random.default_rng(seed)
    for run in result.records[:n_seed]:
        expected = BASE.with_(
            synth_effort=float(rng.uniform(0.2, 0.9)),
            utilization=float(rng.uniform(0.55, 0.85)),
            cts_effort=float(rng.uniform(0.3, 0.9)),
            router_effort=float(rng.uniform(0.4, 0.9)),
            opt_guardband=float(rng.uniform(0.0, 50.0)),
            target_clock_ghz=float(BASE.target_clock_ghz * rng.uniform(0.85, 1.1)),
        )
        assert (run.options, run.seed) == (expected, int(rng.integers(0, 2**31 - 1)))
    for run in result.records[n_seed:]:
        assert run.seed == int(rng.integers(0, 2**31 - 1))
    assert len(result.records) == n_seed + n_adaptive


def test_seed_budget_counts_flow_runs_only(small_spec):
    """A campaign summary filed under the design is not a flow run the
    miner can learn from: one prior flow plus six seeds is too few,
    and the campaign says so before any flow runs."""
    server = MetricsServer()
    InstrumentedFlow(server).run(small_spec, BASE, seed=0)
    with Transmitter(server, small_spec.name, "dse-explorer-0", tool="dse") as tx:
        tx.send("dse.runs", 1.0)
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            engine = DSEEngine(strategy="miner", executor=executor,
                               params={"n_seed": 6, "n_adaptive": 1})
            with pytest.raises(ValueError, match="holds 1 flow runs"):
                engine.run(small_spec, seed=0)
            assert executor.stats.jobs_submitted == 0
    result, _ = _campaign(small_spec, server=server, n_seed=7, n_adaptive=1)
    assert result.n_runs == 8  # the prior flow run completes the minimum


def test_miner_campaign_gets_the_engine_services(small_spec):
    """A run budget stops the loop between adaptive runs, and the
    campaign summary lands under the design like any strategy's."""
    n_seed = 8
    result, server = _campaign(small_spec, seed=5, n_seed=n_seed, n_adaptive=6,
                               budget=Budget(max_runs=n_seed + 2))
    assert result.method == "miner" and result.objective == "area"
    assert result.n_runs == len(result.records) == len(result.all_scores) == n_seed + 2
    # the trace holds the best value after each run that did not fail
    assert len(result.trace) == result.n_runs - result.n_failed
    assert result.best_score == result.best_result.area
    assert "dse-miner-5" in server.runs(small_spec.name)
    assert server.run_vector("dse-miner-5")["dse.runs"] == n_seed + 2
