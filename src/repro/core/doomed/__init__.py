"""Doomed-run prediction (paper Sec 3.3, Figs 9-10 and the error table).

Tool logfiles are time series of per-iteration DRV counts.  The
predictor bins each observation into (violation bin, slope bin) states,
learns GO/STOP values by policy iteration over an MDP estimated from a
training corpus, and fills unobserved states with the paper's
footnote-5 rules.  An HMM-based predictor (the paper's alternative,
ref [36]) and a logistic baseline are also provided.  Each predictor is
one class whose ``stop_signal(drvs, t)`` is its raw STOP signal.  The
rule that stops a run only after k consecutive STOPs
(:func:`repro.core.doomed.evaluate.stop_iteration`), its Type-1/Type-2
scorer (:func:`evaluate_policy`) and the live kill hook
(:class:`KillPolicy`) are shared by all of them.
"""

from repro.core.doomed.features import StateSpace, bin_slope, bin_violations
from repro.core.doomed.card import StrategyCard, GO, STOP
from repro.core.doomed.mdp_policy import MDPCardLearner
from repro.core.doomed.evaluate import (
    DoomedEvaluation,
    KillPolicy,
    evaluate_policy,
)
from repro.core.doomed.hmm_predictor import HMMDoomPredictor
from repro.core.doomed.logistic_baseline import LogisticDoomBaseline
from repro.core.doomed.warehouse import router_logs_from_store

__all__ = [
    "router_logs_from_store",
    "LogisticDoomBaseline",
    "StateSpace",
    "bin_violations",
    "bin_slope",
    "StrategyCard",
    "GO",
    "STOP",
    "MDPCardLearner",
    "DoomedEvaluation",
    "KillPolicy",
    "evaluate_policy",
    "HMMDoomPredictor",
]
