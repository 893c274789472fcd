"""The one-class extension recipes of ``docs/extending.md``: a new timer
is one ``DelayPolicy`` subclass, a new doomed-run predictor one class
with a ``stop_signal``."""

import pickle

import numpy as np

from repro.bench.corpus import RouterLog
from repro.core.doomed import DoomedEvaluation, KillPolicy, evaluate_policy
from repro.core.doomed.evaluate import stop_iteration
from repro.eda.routing import DetailedRouter
from repro.eda.sta import DelayPolicy, GraphSTA, TimingGraph


class DeratedSTA(DelayPolicy):
    """A timer that only derates every stage delay by 10%."""

    engine_name = "derated"

    def stage_derate(self) -> float:
        return 1.1


class RisingDRVs:
    """A predictor that only signals STOP when the DRV count rose."""

    def stop_signal(self, drvs, t) -> bool:
        return drvs[t] > drvs[t - 1]


def test_a_timer_is_one_delay_policy_subclass(small_netlist, small_placement):
    timer = DeratedSTA()
    graph = timer.build_graph(small_netlist, small_placement)
    assert isinstance(graph, TimingGraph)
    assert graph.policy is timer
    graph.full_propagate()
    report = timer.analyze(small_netlist, small_placement, 1200.0)
    assert report.engine == "derated"
    assert report.wns == graph.report(1200.0).wns  # analyze is the shared kernel
    assert report.wns < GraphSTA().analyze(small_netlist, small_placement, 1200.0).wns


def test_a_predictor_is_one_class_with_a_stop_signal():
    predictor = RisingDRVs()
    assert stop_iteration(predictor, [9, 7, 8, 6, 7, 8], consecutive=1) == 2
    assert stop_iteration(predictor, [9, 7, 8, 6, 7, 8], consecutive=2) == 5
    assert stop_iteration(predictor, [9, 7, 5, 3], consecutive=1) is None

    logs = [
        RouterLog([90, 60, 30, 0], True, "test", 0.5),  # converges: kept
        RouterLog([90, 95, 99, 120, 150], False, "test", 1.5),  # diverges: stopped
        RouterLog([90, 91, 93, 40, 0], True, "test", 0.8),  # blip: wrongly stopped
        RouterLog([90, 80, 70, 60], False, "test", 1.2),  # slow failure: missed
    ]
    assert evaluate_policy(predictor, logs, consecutive=2) == DoomedEvaluation(
        n_logs=4, type1_errors=1, type2_errors=1, correct_stops=1,
        iterations_saved=2, consecutive_stops_required=2,
    )

    policy = KillPolicy(predictor, consecutive=1)
    clone = pickle.loads(pickle.dumps(policy))
    assert isinstance(clone.predictor, RisingDRVs) and clone.consecutive == 1
    assert [clone(log.drvs) for log in logs] == [False, True, True, False]

    # a run on a uniformly overflowing map diverges; the hook stops it
    congestion = np.full((16, 16), 1.4)
    result = DetailedRouter(max_iterations=20).route(congestion, seed=3,
                                                     stop_callback=clone)
    assert result.stopped_early
    assert result.iterations_run < 20
    history = result.drvs_per_iteration
    assert history[-1] > history[-2]  # it stopped on a rise
