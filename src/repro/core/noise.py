"""Inherent tool-noise characterization (paper Fig 3, refs [29][15]).

"Post-P&R area can change by 6% when target frequency changes by just
10MHz near the maximum achievable frequency ... statistics of this
noisy tool behavior are Gaussian ... if designers want predictable
results, they must 'aim low'."

:func:`noise_sweep` runs the real flow across a target-frequency sweep
with many seeds per target; :class:`NoiseCharacterization` extracts the
figure's two panels (QoR-vs-target scatter with variance growth, and
per-target Gaussianity) plus the "aim low" guardband: how far below the
nominal maximum a designer must target for a given success confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.synthesis import DesignSpec
from repro.ml.stats import NormalFit, fit_normal


@dataclass
class NoiseSweepResult:
    """All flow runs of a noise sweep, indexed by target frequency."""

    targets: List[float]
    runs: Dict[float, List[FlowResult]] = field(default_factory=dict)

    def areas(self, target: float) -> np.ndarray:
        return np.array([r.area for r in self.runs[target]])

    def success_rate(self, target: float) -> float:
        results = self.runs[target]
        return sum(r.timing_met for r in results) / len(results)

    @property
    def n_seeds(self) -> int:
        return len(self.runs[self.targets[0]])


def noise_sweep(
    spec: DesignSpec,
    targets: Sequence[float],
    n_seeds: int = 20,
    base_options: Optional[FlowOptions] = None,
    seed0: int = 0,
) -> NoiseSweepResult:
    """Run the flow ``n_seeds`` times per target frequency."""
    targets = sorted(targets)
    if not targets:
        raise ValueError("need at least one target")
    if n_seeds < 2:
        raise ValueError("need at least 2 seeds to see noise")
    base = base_options or FlowOptions()
    flow = SPRFlow()
    result = NoiseSweepResult(targets=list(targets))
    for target in targets:
        options = base.with_(target_clock_ghz=float(target))
        result.runs[target] = [
            flow.run(spec, options, seed=seed0 + s) for s in range(n_seeds)
        ]
    return result


@dataclass
class NoiseCharacterization:
    """Statistics of a completed sweep (the content of Fig 3)."""

    sweep: NoiseSweepResult

    def area_mean(self) -> np.ndarray:
        return np.array([self.sweep.areas(t).mean() for t in self.sweep.targets])

    def area_std(self) -> np.ndarray:
        return np.array(
            [self.sweep.areas(t).std(ddof=1) for t in self.sweep.targets]
        )

    def noise_growth_ratio(self) -> float:
        """Noise at the most aggressive targets over noise at the most
        relaxed (Fig 3 left: "noise increases with target design
        quality").  > 1 reproduces the paper's observation."""
        stds = self.area_std()
        k = max(1, len(stds) // 3)
        low = float(np.mean(stds[:k]))
        high = float(np.mean(stds[-k:]))
        return high / max(1e-12, low)

    def gaussian_fit(self, target: float) -> NormalFit:
        """Fig 3 right: the per-target QoR histogram's normal fit."""
        return fit_normal(self.sweep.areas(target))

    def gaussian_fraction(self) -> float:
        """Fraction of targets whose area sample passes the JB test."""
        fits = [self.gaussian_fit(t) for t in self.sweep.targets]
        return sum(f.looks_gaussian for f in fits) / len(fits)

    # ------------------------------------------------------------------
    def aim_low_target(self, confidence: float = 0.95) -> float:
        """The highest target with success rate >= confidence.

        The gap between this and the highest *sometimes*-achievable
        target is the schedule guardband the paper says unpredictability
        forces on designers.
        """
        if not 0.0 < confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")
        feasible = [
            t for t in self.sweep.targets if self.sweep.success_rate(t) >= confidence
        ]
        if not feasible:
            raise ValueError("no target meets the requested confidence")
        return max(feasible)

    def frequency_guardband(self, confidence: float = 0.95) -> float:
        """GHz the designer gives up to be safe: best sometimes-feasible
        target minus the aim-low target."""
        sometimes = [
            t for t in self.sweep.targets if self.sweep.success_rate(t) > 0.0
        ]
        if not sometimes:
            return 0.0
        return max(sometimes) - self.aim_low_target(confidence)

    def summary(self) -> Dict[str, float]:
        return {
            "n_targets": float(len(self.sweep.targets)),
            "n_seeds": float(self.sweep.n_seeds),
            "noise_growth_ratio": self.noise_growth_ratio(),
            "gaussian_fraction": self.gaussian_fraction(),
        }
