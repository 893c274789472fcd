"""Predicting doomed P&R flows from pre-placement information.

"The same applies to doomed P&R flows, doomed floorplans, etc." — if a
netlist + floorplan combination cannot route, the hours spent placing
and routing it are pure waste.  This predictor learns routing success
from features available *before placement* (netlist structure, target
utilization, routing supply, target frequency) and is used to veto
hopeless runs up front.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.library import make_default_library
from repro.eda.synthesis import DesignSpec, synthesize
from repro.ml.logistic import LogisticRegression
from repro.ml.scaling import StandardScaler

_FEATURES = (
    "instances",
    "area",
    "depth",
    "avg_fanout",
    "max_fanout",
    "utilization",
    "tracks_per_um",
    "target_ghz",
)


def _featurize(spec_stats: Dict[str, float], options: FlowOptions) -> List[float]:
    return [
        spec_stats["instances"],
        spec_stats["area"],
        spec_stats["depth"],
        spec_stats["avg_fanout"],
        spec_stats["max_fanout"],
        options.utilization,
        options.router_tracks_per_um,
        options.target_clock_ghz,
    ]


class FloorplanDoomPredictor:
    """Logistic routability model over pre-placement features."""

    feature_names = _FEATURES

    def __init__(self, threshold: float = 0.35, seed: Optional[int] = None):
        """``threshold``: veto a run when P(routes cleanly) falls below it."""
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self.seed = seed
        self.scaler = StandardScaler()
        self.model = LogisticRegression(alpha=1e-2)
        self._fitted = False

    # ------------------------------------------------------------------
    def collect_training_runs(
        self,
        specs: Sequence[DesignSpec],
        n_runs: int = 50,
        seed: int = 0,
    ) -> List[FlowResult]:
        """Run randomized flows to gather (features, routed) pairs."""
        if n_runs < 8:
            raise ValueError("need at least 8 training runs")
        rng = np.random.default_rng(seed)
        flow = SPRFlow()
        results = []
        for i in range(n_runs):
            spec = specs[i % len(specs)]
            options = FlowOptions(
                target_clock_ghz=float(rng.uniform(0.4, 0.9)),
                utilization=float(rng.uniform(0.5, 0.95)),
                router_tracks_per_um=float(rng.uniform(8.0, 20.0)),
            )
            results.append(
                flow.run(spec, options, seed=int(rng.integers(0, 2**31 - 1)))
            )
        return results

    def fit_from_results(self, results: Sequence[FlowResult]) -> "FloorplanDoomPredictor":
        rows, labels = [], []
        for result in results:
            synth_step = next(log for log in result.logs if log.step == "synth")
            rows.append(_featurize(synth_step.metrics, result.options))
            labels.append(1 if result.routed else 0)
        if len(set(labels)) < 2:
            raise ValueError("training runs must include both routed and unrouted flows")
        X = self.scaler.fit_transform(np.array(rows))
        self.model.fit(X, np.array(labels))
        self._fitted = True
        return self

    def fit(
        self,
        specs: Sequence[DesignSpec],
        n_runs: int = 50,
        seed: int = 0,
    ) -> "FloorplanDoomPredictor":
        return self.fit_from_results(self.collect_training_runs(specs, n_runs, seed))

    # ------------------------------------------------------------------
    def success_probability(self, spec: DesignSpec, options: FlowOptions) -> float:
        """P(the run routes cleanly), from pre-placement features only.

        Synthesizes the netlist (cheap) to read its structure; placement
        and routing are *not* run.
        """
        if not self._fitted:
            raise RuntimeError("predictor is not fitted")
        netlist = synthesize(spec, make_default_library(), options.synth_effort, seed=0)
        row = _featurize(netlist.stats(), options)
        X = self.scaler.transform(np.array([row]))
        return float(self.model.predict_proba(X)[0])

    def veto(self, spec: DesignSpec, options: FlowOptions) -> bool:
        """True when the run should be skipped as doomed."""
        return self.success_probability(spec, options) < self.threshold

    def evaluate(self, results: Sequence[FlowResult]) -> Dict[str, float]:
        """Confusion summary against completed runs' ground truth."""
        if not self._fitted:
            raise RuntimeError("predictor is not fitted")
        tp = fp = tn = fn = 0
        for result in results:
            synth_step = next(log for log in result.logs if log.step == "synth")
            row = _featurize(synth_step.metrics, result.options)
            p = float(self.model.predict_proba(self.scaler.transform(np.array([row])))[0])
            predicted_ok = p >= self.threshold
            if predicted_ok and result.routed:
                tp += 1
            elif predicted_ok and not result.routed:
                fn += 1  # let a doomed run proceed (paper's Type-2 analogue)
            elif not predicted_ok and result.routed:
                fp += 1  # vetoed a good run (Type-1 analogue)
            else:
                tn += 1
        n = max(1, tp + fp + tn + fn)
        return {
            "accuracy": (tp + tn) / n,
            "vetoed_good": fp,
            "missed_doomed": fn,
            "caught_doomed": tn,
            "n": n,
        }
