"""HMM-based doomed-run prediction (the paper's ref [36] alternative).

Two discrete HMMs are trained — one on successful runs, one on failed
runs — over the violation-bin symbol alphabet.  A live run's prefix is
classified by log-likelihood ratio: :meth:`HMMDoomPredictor.stop_signal`
signals STOP when the fail model dominates by a margin, and (like the
MDP card) the shared rule of :mod:`repro.core.doomed.evaluate` turns
several consecutive STOPs into a termination.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.bench.corpus import RouterLog
from repro.core.doomed.features import bin_violations
from repro.ml.hmm import DiscreteHMM


class HMMDoomPredictor:
    """Likelihood-ratio doom classifier over DRV-bin sequences."""

    def __init__(
        self,
        n_states: int = 3,
        n_bins: int = 19,
        margin: float = 2.0,
        min_prefix: int = 3,
        seed: Optional[int] = None,
    ):
        """``margin`` is the log-likelihood-ratio threshold (nats) the
        fail model must win by; ``min_prefix`` avoids judging a run on
        its first couple of iterations."""
        if margin < 0:
            raise ValueError("margin must be non-negative")
        if min_prefix < 2:
            raise ValueError("min_prefix must be >= 2 (need a slope)")
        self.n_bins = n_bins
        self.margin = margin
        self.min_prefix = min_prefix
        self.model_success = DiscreteHMM(n_states, n_bins, random_state=seed)
        self.model_fail = DiscreteHMM(n_states, n_bins, random_state=None if seed is None else seed + 1)
        self._fitted = False

    def _symbols(self, drvs) -> List[int]:
        return [bin_violations(v, self.n_bins) for v in drvs]

    def fit_from_store(self, store, design=None, campaign=None,
                       since=None) -> "HMMDoomPredictor":
        """Fit from DRV trajectories persisted in a metrics store —
        the full archive by default, or one design/campaign slice."""
        from repro.core.doomed.warehouse import router_logs_from_store

        return self.fit(router_logs_from_store(
            store, design=design, campaign=campaign, since=since))

    def fit(self, logs: Iterable[RouterLog]) -> "HMMDoomPredictor":
        good = []
        bad = []
        for log in logs:
            (good if log.success else bad).append(self._symbols(log.drvs))
        if not good or not bad:
            raise ValueError("training corpus needs both successful and failed runs")
        self.model_success.fit(good)
        self.model_fail.fit(bad)
        self._fitted = True
        return self

    def doom_score(self, drvs) -> float:
        """Log-likelihood margin of the fail model on a DRV prefix
        (positive = looks doomed)."""
        if not self._fitted:
            raise RuntimeError("predictor is not fitted")
        symbols = self._symbols(drvs)
        return self.model_fail.score(symbols) - self.model_success.score(symbols)

    def stop_signal(self, drvs, t: int) -> bool:
        """STOP once the prefix through ``t`` is long enough to judge and
        the fail model wins by more than ``margin``."""
        return t >= self.min_prefix and self.doom_score(drvs[: t + 1]) > self.margin
