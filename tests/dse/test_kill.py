"""Online doomed-run killing: policy semantics, executor accounting,
and bit-identical campaigns at any worker count (the property that
makes killing a pure cost optimization, never a QoR gamble)."""

import pickle

import pytest

from repro.core.parallel import FlowExecutor
from repro.dse import DSEEngine, KillPolicy, train_kill_policy
from repro.metrics import MetricsCollector, MetricsServer
from tests.core.doomed_reference import make_stop_callback

RISING = [3000.0, 3400.0, 3900.0, 4500.0, 5200.0, 6000.0, 7000.0]
CONVERGING = [3000.0, 2200.0, 1500.0, 900.0, 400.0, 120.0, 20.0]


def test_policies_validate_consecutive(mdp_policy):
    with pytest.raises(ValueError):
        KillPolicy(mdp_policy.predictor, consecutive=0)
    with pytest.raises(ValueError):
        KillPolicy(train_kill_policy("hmm", seed=0).predictor, consecutive=0)
    with pytest.raises(ValueError, match="unknown kill-policy kind"):
        train_kill_policy("oracle")


def test_card_policy_matches_legacy_closure(mdp_policy):
    """The picklable policy and the historical (frozen) closure agree on
    every prefix of both a doomed and a converging history."""
    legacy = make_stop_callback(mdp_policy.predictor, mdp_policy.consecutive)
    for history in (RISING, CONVERGING):
        for cut in range(1, len(history) + 1):
            assert mdp_policy(history[:cut]) == legacy(history[:cut])
    assert mdp_policy(RISING)          # a diverging run does get killed
    assert not mdp_policy(CONVERGING)  # a converging run never does


def test_policies_survive_pickling(mdp_policy):
    clone = pickle.loads(pickle.dumps(mdp_policy))
    assert clone(RISING) == mdp_policy(RISING)
    hmm = train_kill_policy("hmm", seed=0)
    assert pickle.loads(pickle.dumps(hmm))(RISING) == hmm(RISING)


def _kill_campaign(executor, spec, points, policy, seed=4):
    engine = DSEEngine(
        strategy="sweep", executor=executor, kill_policy=policy,
        params={"points": points, "n_concurrent": 2},
    )
    return engine.run(spec, seed=seed)


def test_killing_saves_work_and_reports_stats(mcu_spec, doomed_points,
                                              mdp_policy):
    with FlowExecutor(n_workers=1, cache=None) as executor:
        result = _kill_campaign(executor, mcu_spec, doomed_points, mdp_policy)
        assert result.n_killed == 2          # exactly the doomed points
        assert result.kill_proxy_saved > 0
        assert executor.stats.kills == 2
        assert executor.stats.kill_proxy_saved == result.kill_proxy_saved
        assert "kills=2" in executor.stats.summary()


def test_kill_campaign_is_worker_count_invariant(mcu_spec, doomed_points,
                                                 mdp_policy):
    """Satellite acceptance: same survivors, same QoR, same exec.killed.*
    counts at n_workers=1 and 4."""
    outcomes = {}
    for n_workers in (1, 4):
        server = MetricsServer()
        with MetricsCollector(server, cross_process=n_workers > 1) as collector:
            with FlowExecutor(n_workers=n_workers, cache=None,
                              collector=collector) as executor:
                result = _kill_campaign(executor, mcu_spec,
                                        doomed_points, mdp_policy)
            collector.flush()
        killed_runs = {
            run_id for run_id in server.runs()
            if server.run_vector(run_id).get("exec.killed.run") == 1.0
        }
        survivor_qor = {
            run_id: (vec.get("flow.area"), vec.get("signoff.wns"),
                     vec.get("flow.achieved_ghz"))
            for run_id in server.runs()
            for vec in [server.run_vector(run_id)]
            if vec.get("exec.killed.run") == 0.0
        }
        saved = sum(
            record.value
            for record in server.query(metric="exec.killed.proxy_saved")
        )
        outcomes[n_workers] = (result.all_scores, result.best_score,
                               result.n_killed, result.kill_proxy_saved,
                               killed_runs, survivor_qor, saved)

    serial, parallel = outcomes[1], outcomes[4]
    assert serial == parallel
    assert serial[2] == 2                # kills actually happened
    assert serial[6] == serial[3] > 0    # records agree with the result


def test_explorer_pruned_runs_are_the_executor_kills(mcu_spec, mdp_policy):
    with FlowExecutor(n_workers=1, cache=None) as executor:
        result = DSEEngine(
            strategy="explorer", executor=executor, kill_policy=mdp_policy,
            params={"n_rounds": 3, "n_concurrent": 3},
        ).run(mcu_spec, seed=1)
    assert result.n_pruned == result.n_killed > 0


def test_unkilled_campaign_reports_zero_kill_events(small_spec):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            result = DSEEngine(
                strategy="sweep", executor=executor,
                params={"limit": 2, "n_concurrent": 2},
            ).run(small_spec, seed=1)
        collector.flush()
    assert result.n_killed == 0
    for run_id in server.runs():
        vec = server.run_vector(run_id)
        if run_id.startswith("dse-"):
            continue
        assert vec["exec.killed.run"] == 0.0
        assert vec["exec.killed.proxy_saved"] == 0.0


def test_killed_runs_resume_router_trajectories_bit_identically(mcu_spec, mdp_policy):
    """A stage-caching executor under a kill policy: router caps and
    seeds in random orders resume the trajectories killed runs left,
    and every result equals the cache-off executor's."""
    import random

    from repro.core.parallel import FlowJob
    from repro.eda.flow import FlowOptions

    base = FlowOptions(utilization=0.85, router_effort=0.3)
    jobs = [FlowJob(mcu_spec, base.with_(router_max_iterations=cap), seed)
            for seed in range(3) for cap in (5, 10, 20, 30, 40)]
    with FlowExecutor(n_workers=1, cache=None) as plain:
        reference = plain.run_jobs(jobs, stop_callback=mdp_policy)
    assert plain.stats.kills == len(jobs)  # the callback path decides every run
    rng = random.Random(0)
    for _ in range(4):
        order = rng.sample(range(len(jobs)), len(jobs))
        with FlowExecutor(n_workers=1, cache=None, stage_cache=True) as staged:
            for i in order:
                assert staged.run_jobs([jobs[i]], stop_callback=mdp_policy)[0] == \
                    reference[i], jobs[i]
        assert staged.stats.kills == len(jobs)
        assert staged.stats.kill_proxy_saved == plain.stats.kill_proxy_saved
        assert staged.stats.resumed_iterations > 0
