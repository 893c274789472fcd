"""Objectives: ranking keys, success gating, Pareto fronts."""

import dataclasses
import math

import pytest

from repro.core.orchestration.explorer import default_score
from repro.dse import OBJECTIVES, Objective, ParetoObjective
from repro.dse.objective import resolve_objective
from repro.eda.flow import FlowOptions, SPRFlow


@pytest.fixture(scope="module")
def good_result(small_spec):
    result = SPRFlow().run(small_spec, FlowOptions(target_clock_ghz=0.6),
                           seed=5)
    assert result.success
    return result


@pytest.fixture(scope="module")
def failed_result(good_result):
    return dataclasses.replace(good_result, routed=False, timing_met=False)


def test_score_objective_matches_historical_explorer(good_result):
    objective = OBJECTIVES["score"]()
    assert objective.value(good_result) == default_score(good_result)
    assert objective.key(good_result) == default_score(good_result)


def test_min_direction_negates_key_only(good_result):
    area = OBJECTIVES["area"]()
    assert area.value(good_result) == good_result.area  # natural units
    assert area.key(good_result) == -good_result.area   # higher-is-better


def test_requires_success_ranks_failures_last(good_result, failed_result):
    area = OBJECTIVES["area"]()
    assert area.key(failed_result) == -math.inf
    assert area.key(good_result) > area.key(failed_result)
    # score ranks failures too (the explorer's progress signal)
    score = OBJECTIVES["score"]()
    assert math.isfinite(score.key(failed_result))


def test_objective_validates_direction():
    with pytest.raises(ValueError):
        Objective("bad", lambda r: 0.0, direction="sideways")


def test_pareto_validation():
    area = OBJECTIVES["area"]()
    wns = OBJECTIVES["wns"]()
    with pytest.raises(ValueError, match="at least 2 axes"):
        ParetoObjective(objectives=(area,))
    with pytest.raises(ValueError, match="one weight per"):
        ParetoObjective(objectives=(area, wns), weights=(1.0,))
    with pytest.raises(ValueError, match="positive"):
        ParetoObjective(objectives=(area, wns), weights=(1.0, -1.0))


def test_pareto_front_keeps_non_dominated(good_result, failed_result):
    pareto = OBJECTIVES["pareto"]()
    small_slow = dataclasses.replace(good_result, area=100.0, wns=10.0,
                                     power=50.0)
    big_fast = dataclasses.replace(good_result, area=200.0, wns=500.0,
                                   power=50.0)
    dominated = dataclasses.replace(good_result, area=250.0, wns=5.0,
                                    power=60.0)
    front = []
    for result in (small_slow, big_fast, dominated, failed_result):
        front = pareto.update_front(front, result)
    assert small_slow in front and big_fast in front
    assert dominated not in front      # worse on every axis than big_fast
    assert failed_result not in front  # success-gated
    assert pareto.key(failed_result) == -math.inf
    assert math.isfinite(pareto.key(small_slow))


def test_resolve_objective_forms():
    assert resolve_objective("area").name == "area"
    assert resolve_objective(default_score).name == "score"
    custom = resolve_objective(lambda r: r.area)
    assert custom.name == "custom" and custom.direction == "max"
    instance = OBJECTIVES["wns"]()
    assert resolve_objective(instance) is instance
    with pytest.raises(ValueError, match="unknown objective"):
        resolve_objective("beauty")
    with pytest.raises(TypeError):
        resolve_objective(42)


# ------------------------------------------- one definition: result and row
@pytest.fixture(scope="module")
def collected_outcomes(mcu_spec, mdp_policy):
    """MCU runs of all four outcome kinds, each with the run vector a
    collecting executor stored for it: a frequency sweep (successful
    and routed-but-late runs), a short router leash at utilization 0.9
    (unrouted) and the MDP card on a 40-iteration cap at 0.85 (killed)."""
    from repro.core.parallel import FlowExecutor, FlowJob
    from repro.metrics import MetricsCollector, MetricsServer, make_run_id

    batches = [
        ([FlowOptions(target_clock_ghz=ghz) for ghz in (0.7, 0.9, 1.2)], None),
        ([FlowOptions(utilization=0.9, router_max_iterations=cap)
          for cap in (3, 6)], None),
        ([FlowOptions(utilization=0.85, router_max_iterations=40,
                      target_clock_ghz=ghz) for ghz in (0.7, 1.0)], mdp_policy),
    ]
    server = MetricsServer()
    outcomes = []
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            for options_list, kill in batches:
                jobs = [FlowJob(mcu_spec, options, seed)
                        for options in options_list for seed in (0, 1)]
                runs = executor.run_jobs(jobs, stop_callback=kill)
                outcomes += [(run, make_run_id(mcu_spec, job.options, job.seed))
                             for job, run in zip(jobs, runs)]
    return [(run, server.run_vector(run_id)) for run, run_id in outcomes]


def test_every_objective_reads_a_result_and_its_run_vector_alike(
        collected_outcomes):
    from repro.metrics.wrappers import RunVectorView

    kinds = set()
    for run, vector in collected_outcomes:
        killed = vector["exec.killed.run"] == 1.0
        kinds.add("killed" if killed else "success" if run.success
                  else "late" if run.routed else "unrouted")
        view = RunVectorView(vector)
        for name, make in OBJECTIVES.items():
            objective = make()
            assert objective.key(view) == objective.key(run), (name, vector)
            assert objective.value(view) == objective.value(run), (name, vector)
    assert kinds == {"success", "late", "unrouted", "killed"}


def test_run_vector_view_raises_on_a_missing_field():
    from repro.metrics.wrappers import RunVectorView

    view = RunVectorView({"flow.area": 120.0, "flow.success": 0.0})
    assert view.area == 120.0 and not view.success
    assert view.wns == math.inf and view.timing_met  # the dropped sentinel
    with pytest.raises(KeyError, match="signoff.power"):
        OBJECTIVES["power"]().value(view)
    with pytest.raises(KeyError, match="droute.final_drvs"):
        OBJECTIVES["score"]().key(view)
