"""Logistic-regression doomed-run baseline.

A sanity baseline for the MDP/HMM predictors: classify each in-flight
(iteration, DRV, slope) observation with plain logistic regression on
simple features, and stop on consecutive doom flags.  If the MDP card
cannot beat this, the sequential modeling is not earning its keep.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.bench.corpus import RouterLog
from repro.ml.logistic import LogisticRegression
from repro.ml.scaling import StandardScaler


def _features(drvs, t: int) -> List[float]:
    current = drvs[t]
    previous = drvs[t - 1]
    delta = current - previous
    return [
        float(t),
        np.log1p(max(0.0, current)),
        np.sign(delta) * np.log1p(abs(delta)),
        np.log1p(max(0.0, drvs[0])),
        current / max(1.0, drvs[0]),
    ]


class LogisticDoomBaseline:
    """Per-observation doom classifier (consecutive-stop filtering is
    the shared :func:`~repro.core.doomed.evaluate.stop_iteration`)."""

    def __init__(self, threshold: float = 0.75, seed: Optional[int] = None):
        """``threshold``: P(doomed) above which an observation flags STOP."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self.scaler = StandardScaler()
        self.model = LogisticRegression(alpha=1e-2)
        self._fitted = False

    def fit(self, logs: Iterable[RouterLog]) -> "LogisticDoomBaseline":
        rows, labels = [], []
        for log in logs:
            doomed = 0 if log.success else 1
            for t in range(1, len(log.drvs)):
                rows.append(_features(log.drvs, t))
                labels.append(doomed)
        if not rows:
            raise ValueError("training corpus is empty")
        if len(set(labels)) < 2:
            raise ValueError("corpus needs both successful and failed runs")
        X = self.scaler.fit_transform(np.array(rows))
        self.model.fit(X, np.array(labels))
        self._fitted = True
        return self

    def doom_probability(self, drvs, t: int) -> float:
        if not self._fitted:
            raise RuntimeError("baseline is not fitted")
        X = self.scaler.transform(np.array([_features(drvs, t)]))
        return float(self.model.predict_proba(X)[0])

    def stop_signal(self, drvs, t: int) -> bool:
        """STOP when P(doomed) at iteration ``t`` exceeds ``threshold``."""
        return self.doom_probability(drvs, t) > self.threshold
