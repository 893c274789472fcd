"""Ablations of the design choices DESIGN.md calls out.

Not paper figures — these benches justify the reproduction's own
decisions: the footnote-5 fill-in rules, the sequential MDP model (vs
HMM and per-observation logistic baselines), the consecutive-STOP
filter, GWTW's survivor fraction, and eyechart-graded sizing heuristics.
"""

import numpy as np
from conftest import print_header

from repro.bench.characterize import characterize
from repro.core.doomed import (
    HMMDoomPredictor,
    LogisticDoomBaseline,
    MDPCardLearner,
    evaluate_policy,
)
from repro.core.search import BisectionProblem
from repro.dse import DSEEngine


def test_ablation_fill_in_rules(benchmark, train_corpus, test_corpus):
    """Footnote-5 fill-in: what do the programmatic rules buy?"""
    test = test_corpus.logs[:1500]

    def fit_both():
        with_rules = MDPCardLearner(fill_in=True).fit(train_corpus)
        without = MDPCardLearner(fill_in=False).fit(train_corpus)
        return with_rules, without

    with_rules, without = benchmark.pedantic(fit_both, rounds=1, iterations=1)

    print_header("Ablation: footnote-5 fill-in rules")
    print(f"{'':>14} {'err@k=2':>8} {'T1':>5} {'T2':>5} {'stop states':>12}")
    rows = {}
    for label, card in (("with rules", with_rules), ("without", without)):
        ev = evaluate_policy(card, test, consecutive=2)
        rows[label] = ev
        print(f"{label:>14} {100 * ev.error_rate:>7.1f}% {ev.type1_errors:>5} "
              f"{ev.type2_errors:>5} {card.counts()['stop']:>12}")

    # unvisited-state defaults matter: the rule-filled card must not be
    # worse, and the unfilled card leaves unvisited states at the MDP's
    # arbitrary default (GO), missing doomed excursions into rare states
    assert rows["with rules"].error_rate <= rows["without"].error_rate + 0.01


def test_ablation_doomed_predictors(benchmark, train_corpus, test_corpus):
    """MDP card vs HMM vs per-observation logistic regression."""
    train = train_corpus.logs[:600]
    test = test_corpus.logs[:1000]

    def fit_all():
        mdp = MDPCardLearner().fit(train)
        hmm = HMMDoomPredictor(seed=0).fit(train)
        logistic = LogisticDoomBaseline(seed=0).fit(train)
        return mdp, hmm, logistic

    mdp, hmm, logistic = benchmark.pedantic(fit_all, rounds=1, iterations=1)

    print_header("Ablation: doomed-run predictor families (test err% @ k)")
    print(f"{'k':>3} {'MDP card':>9} {'HMM':>9} {'logistic':>9}")
    best = {}
    for k in (1, 2, 3):
        mdp_e = evaluate_policy(mdp, test, k).error_rate
        hmm_e = hmm.evaluate(test, k).error_rate
        log_e = logistic.evaluate(test, k).error_rate
        for name, err in (("mdp", mdp_e), ("hmm", hmm_e), ("logistic", log_e)):
            best[name] = min(best.get(name, 1.0), err)
        print(f"{k:>3} {100 * mdp_e:>8.1f}% {100 * hmm_e:>8.1f}% {100 * log_e:>8.1f}%")
    print(f"\nbest-over-k: MDP {100 * best['mdp']:.1f}%, "
          f"HMM {100 * best['hmm']:.1f}%, logistic {100 * best['logistic']:.1f}%")

    # the MDP card (the paper's choice) must be competitive with both
    assert best["mdp"] <= best["hmm"] + 0.03
    assert best["mdp"] <= best["logistic"] + 0.03


def test_ablation_gwtw_survivors(benchmark):
    """How aggressive should winner-cloning be?"""
    problem = BisectionProblem.random_community(
        n_nodes=128, n_communities=16, p_in=0.55, p_out=0.08, seed=6
    )
    fractions = (0.125, 0.25, 0.5, 0.75)

    def sweep():
        out = {}
        for fraction in fractions:
            gwtw = DSEEngine(strategy="gwtw", params={
                "n_threads": 8, "n_stages": 16, "steps_per_stage": 25,
                "survivor_fraction": fraction,
            })
            costs = [gwtw.run(problem, seed=s).best_score for s in range(5)]
            out[fraction] = float(np.mean(costs))
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print_header("Ablation: GWTW survivor fraction (mean best cut, 5 seeds)")
    for fraction, cost in results.items():
        print(f"  survivors {fraction:>5}: {cost:.1f}")

    values = list(results.values())
    assert max(values) - min(values) < 0.15 * min(values)  # robust to the knob


def test_ablation_sizing_heuristics(benchmark):
    """Eyechart characterization: grade sizers against known optima."""
    reports = benchmark.pedantic(
        characterize, kwargs={"n_charts": 24, "n_stages": 8, "seed": 7},
        rounds=1, iterations=1,
    )

    print_header("Eyechart characterization of gate-sizing heuristics")
    print(f"{'sizer':>10} {'mean quality':>13} {'worst':>7} {'exact rate':>11}")
    by_name = {}
    for report in reports:
        by_name[report.sizer] = report
        print(f"{report.sizer:>10} {report.mean_quality:>13.3f} "
              f"{report.worst_quality:>7.3f} {report.optimal_rate:>11.2f}")

    assert by_name["optimal"].mean_quality == 1.0
    assert by_name["greedy"].mean_quality < by_name["random20"].mean_quality
    assert by_name["random20"].mean_quality < by_name["naive_x1"].mean_quality
    # "constructive benchmarking": the suite can measure how far a real
    # heuristic lands from optimal, not just rank heuristics
    assert by_name["greedy"].mean_quality - 1.0 < 0.05
