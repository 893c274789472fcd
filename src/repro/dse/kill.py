"""Online doomed-run killing: predictors as executor stop hooks.

The doomed-run predictors of :mod:`repro.core.doomed` were an offline
artifact (paper Fig 9/10 and the error table); here they become live
kill policies.  A :class:`~repro.core.doomed.evaluate.KillPolicy` wraps
any predictor in a *picklable* callable, so it can cross the
:class:`~repro.core.parallel.FlowExecutor` process boundary and ride
the existing ``SPRFlow``/``DetailedRouter`` ``stop_callback`` path:
the router hands it the DRV history after every rip-up iteration and
terminates the run when it returns True.

The decision is deterministic given the history, so campaigns with a
kill policy stay bit-identical at any worker count.
"""

from __future__ import annotations

from repro.core.doomed.evaluate import KillPolicy
from repro.core.doomed.hmm_predictor import HMMDoomPredictor
from repro.core.doomed.mdp_policy import MDPCardLearner

#: kept only because ``benchmarks/e2e/tracing.py`` imports this name to
#: wrap ``KillPolicy.__call__``; new code uses :class:`KillPolicy`
CardKillPolicy = KillPolicy


def train_kill_policy(kind: str = "mdp", n_train: int = 600, seed: int = 0,
                      consecutive: int = 3) -> KillPolicy:
    """Fit a kill policy on an artificial router-log corpus.

    ``kind`` selects the predictor family: ``"mdp"`` (strategy card via
    policy iteration) or ``"hmm"`` (likelihood-ratio classifier).
    """
    from repro.bench.corpus import RouterLogCorpus

    corpus = RouterLogCorpus.artificial(n=n_train, seed=seed)
    if kind == "mdp":
        return KillPolicy(MDPCardLearner().fit(corpus), consecutive)
    if kind == "hmm":
        return KillPolicy(HMMDoomPredictor(seed=seed).fit(corpus), consecutive)
    raise ValueError(f"unknown kill-policy kind {kind!r} (known: mdp, hmm)")
