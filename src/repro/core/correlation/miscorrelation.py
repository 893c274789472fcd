"""Quantifying miscorrelation: guardbands, their cost, and Fig 8's curve.

"If the P&R tool is overly pessimistic in guardbanding miscorrelation
to signoff STA, then it will perform unneeded sizing, shielding or
VT-swapping operations that cost area, power and schedule."  The
functions here size the guardband a cheap engine needs to be safe
against the golden engine, measure what that guardband costs in actual
optimizer work on the substrate, and assemble the accuracy-cost points
of Fig 8 — including the "+ML" point that shifts the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.correlation.dataset import CorrelationDataset
from repro.core.correlation.models import MiscorrelationModel


def miscorrelation_stats(dataset: CorrelationDataset) -> Dict[str, float]:
    """Summary of golden-vs-cheap divergence (ps)."""
    delta = dataset.divergence
    return {
        "mean": float(np.mean(delta)),
        "std": float(np.std(delta)),
        "mae": float(np.mean(np.abs(delta))),
        "worst_optimistic": float(np.min(delta)),  # cheap engine too rosy
        "worst_pessimistic": float(np.max(delta)),
        "n": float(delta.size),
    }


def guardband_for(
    cheap_slack: np.ndarray,
    golden_slack: np.ndarray,
    coverage: float = 0.995,
) -> float:
    """Guardband (ps) the cheap engine must add to be safe.

    The smallest g such that for a ``coverage`` fraction of endpoints,
    ``cheap_slack - g <= golden_slack`` — i.e. declaring an endpoint met
    at guardband g is (almost) never contradicted by signoff.  A
    negative value means the cheap engine is already pessimistic.
    """
    if not 0.5 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0.5, 1.0]")
    cheap = np.asarray(cheap_slack, dtype=float)
    golden = np.asarray(golden_slack, dtype=float)
    if cheap.shape != golden.shape or cheap.size == 0:
        raise ValueError("slack vectors must be equal-length and non-empty")
    optimism = cheap - golden  # positive where the cheap engine over-promises
    return float(np.quantile(optimism, coverage))


@dataclass
class AccuracyCostPoint:
    """One analysis configuration on the Fig 8 tradeoff."""

    name: str
    cost: float  # runtime proxy
    error: float  # MAE against the golden analysis (ps)
    guardband: float  # required safety margin (ps)


def accuracy_cost_curve(
    train: CorrelationDataset,
    test: CorrelationDataset,
    model_kinds: tuple = ("ridge", "gbm"),
    seed: Optional[int] = None,
) -> List[AccuracyCostPoint]:
    """Assemble Fig 8: raw cheap engine, golden engine, and ML-corrected
    cheap engine(s).

    The ML points should land near the golden engine's accuracy at near
    the cheap engine's cost — the "accuracy for free" shift.
    """
    points = [
        AccuracyCostPoint(
            name="cheap",
            cost=train.cheap_runtime,
            error=float(np.mean(np.abs(test.divergence))),
            guardband=guardband_for(test.cheap_slack, test.golden_slack),
        ),
        AccuracyCostPoint(
            name="golden",
            cost=train.golden_runtime,
            error=0.0,
            guardband=0.0,
        ),
    ]
    for kind in model_kinds:
        model = MiscorrelationModel(kind=kind, seed=seed).fit(train)
        corrected = model.predict_golden(test)
        points.append(
            AccuracyCostPoint(
                name=f"cheap+ML({kind})",
                cost=train.cheap_runtime * 1.05,  # inference is ~free
                error=float(np.mean(np.abs(test.golden_slack - corrected))),
                guardband=guardband_for(corrected, test.golden_slack),
            )
        )
    return points


def guardband_optimization_cost(
    guardbands,
    spec=None,
    clock_period: Optional[float] = None,
    seed: int = 0,
) -> List[Dict[str, float]]:
    """Measure what pessimism costs: run the real optimizer at several
    guardbands and record area/leakage/work deltas.

    This is the paper's claim made quantitative on the substrate:
    larger guardbands trigger sizing operations the signoff timer never
    needed, costing area and power.  ``clock_period`` defaults to ~12%
    above the design's unoptimized critical path, where a zero-guardband
    optimizer has nothing to do and every op is guardband-induced.
    """
    from repro.bench.generators import pulpino_profile
    from repro.eda.floorplan import make_floorplan
    from repro.eda.library import make_default_library
    from repro.eda.opt import TimingOptimizer
    from repro.eda.placement import QuadraticPlacer
    from repro.eda.routing import GlobalRouter
    from repro.eda.synthesis import synthesize
    from repro.eda.sta import GraphSTA

    spec = spec or pulpino_profile()
    library = make_default_library()
    if clock_period is None:
        netlist = synthesize(spec, library, effort=0.5, seed=seed)
        floorplan = make_floorplan(netlist, utilization=0.7)
        placement = QuadraticPlacer().place(netlist, floorplan, seed)
        report = GraphSTA().analyze(netlist, placement, 1000.0)
        critical = max(e.arrival for e in report.endpoints.values())
        clock_period = critical * 1.12
    rows = []
    for g in guardbands:
        if g < 0:
            raise ValueError("guardbands must be non-negative")
        netlist = synthesize(spec, library, effort=0.5, seed=seed)
        floorplan = make_floorplan(netlist, utilization=0.7)
        placement = QuadraticPlacer().place(netlist, floorplan, seed)
        congestion = GlobalRouter().route(placement, seed).congestion_map()
        area_before = netlist.total_area
        leak_before = netlist.total_leakage
        opt = TimingOptimizer(
            guardband=float(g), max_passes=8, recover_power=False
        ).optimize(
            netlist, placement, clock_period, GraphSTA(), congestion=congestion, seed=seed
        )
        rows.append(
            {
                "guardband": float(g),
                "area_delta": netlist.total_area - area_before,
                "leakage_delta": netlist.total_leakage - leak_before,
                "sizing_ops": float(opt.total_ops),
                "passes": float(opt.passes),
                "final_wns": opt.final_report.wns,
            }
        )
    return rows
