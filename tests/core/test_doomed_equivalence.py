"""The shared stop rule, scorer and kill hook against the per-predictor
loops they replaced (frozen in ``tests/core/doomed_reference.py``).

Every predictor family — the MDP strategy card, the HMM and the
logistic baseline — is fitted once and scored on a held-out corpus at
k = 1, 2 and 3 consecutive STOPs: the scorer must match field for
field, every log's stop iteration must match, and ``KillPolicy`` must
agree with the frozen hook on every prefix of every log.
"""

import functools

import pytest

from repro.bench.corpus import RouterLogCorpus
from repro.core.doomed import KillPolicy, MDPCardLearner, evaluate_policy
from repro.core.doomed.evaluate import stop_iteration
from tests.core import doomed_reference as ref


def _memoize_prefix_score(predictor, name):
    """Cache ``predictor.<name>(drvs, *t)`` on the prefix it can read.

    Both models are causal (the score at iteration ``t`` reads only
    ``drvs[:t + 1]``), so the cache returns what the call would; it
    only keeps the every-prefix replays below from re-scoring each
    prefix once per replay.
    """
    score = getattr(predictor, name)

    @functools.lru_cache(maxsize=None)
    def cached(prefix, *t):
        return score(list(prefix), *t)

    def call(drvs, *t):
        end = t[0] + 1 if t else len(drvs)
        return cached(tuple(drvs[:end]), *t)

    setattr(predictor, name, call)


@pytest.fixture(scope="module")
def families():
    train = RouterLogCorpus.artificial(n=250, seed=31)
    test = RouterLogCorpus.cpu_floorplans(n=200, seed=32, n_base_maps=3)
    card = MDPCardLearner().fit(train)
    hmm = ref.HMMDoomPredictor(seed=0).fit(train)
    logistic = ref.LogisticDoomBaseline(seed=0).fit(train)
    _memoize_prefix_score(hmm, "doom_score")
    _memoize_prefix_score(logistic, "doom_probability")
    frozen = {
        # (predictor, frozen scorer, frozen stop loop, frozen hook)
        "mdp": (card,
                lambda logs, k: ref.evaluate_policy(card, logs, k),
                lambda drvs, k: ref.stop_iteration(card, drvs, k),
                lambda k: ref.make_stop_callback(card, k)),
        "hmm": (hmm, hmm.evaluate, hmm.stop_iteration,
                lambda k: lambda h: hmm.stop_iteration(h, k) is not None),
        "logistic": (logistic, logistic.evaluate, logistic.stop_iteration,
                     lambda k: lambda h: logistic.stop_iteration(h, k) is not None),
    }
    return test, frozen


@pytest.mark.parametrize("consecutive", [1, 2, 3])
@pytest.mark.parametrize("family", ["mdp", "hmm", "logistic"])
def test_shared_loops_match_frozen_predictor_loops(families, family, consecutive):
    test, frozen = families
    predictor, frozen_evaluate, frozen_stop, frozen_hook = frozen[family]

    assert evaluate_policy(predictor, test, consecutive) == \
        frozen_evaluate(test, consecutive)
    for log in test:
        assert stop_iteration(predictor, log.drvs, consecutive) == \
            frozen_stop(log.drvs, consecutive)

    live, legacy = KillPolicy(predictor, consecutive), frozen_hook(consecutive)
    fired = 0
    for log in test:
        for cut in range(1, len(log.drvs) + 1):
            assert live(log.drvs[:cut]) == legacy(log.drvs[:cut])
        fired += live(log.drvs)
    assert 0 < fired < len(test)  # both outcomes are exercised
