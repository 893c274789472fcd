"""Endpoint-level datasets from paired timing-engine runs.

Each record is one timing endpoint of one placed design: the features
are what the *cheap* analysis already knows (graph-based arrival, path
depth, wire/cell delay split, fanout, slew, local congestion), and the
target is what the *expensive* analysis would say (signoff slack, PBA
slack, or slack at an unanalyzed corner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.bench.generators import DRIVER_CLASSES
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.synthesis import DesignSpec, synthesize
from repro.eda.sta import (
    Corner,
    EndpointTiming,
    GraphSTA,
    SignoffSTA,
    TYPICAL,
    SLOW,
    FAST,
)


@dataclass
class CorrelationDataset:
    """Feature matrix + cheap and golden slacks per endpoint."""

    X: np.ndarray  # (n, d) features from the cheap analysis
    cheap_slack: np.ndarray  # (n,) cheap-engine endpoint slack
    golden_slack: np.ndarray  # (n,) golden-engine endpoint slack
    endpoint_names: List[str]
    feature_names: Tuple[str, ...]
    cheap_runtime: float = 0.0  # mean runtime proxy per design
    golden_runtime: float = 0.0

    def __post_init__(self):
        if self.X.shape[0] != self.cheap_slack.shape[0] or self.X.shape[0] != self.golden_slack.shape[0]:
            raise ValueError("feature and slack row counts disagree")

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def divergence(self) -> np.ndarray:
        """Golden minus cheap slack per endpoint (the miscorrelation)."""
        return self.golden_slack - self.cheap_slack

    def split(self, train_fraction: float = 0.7, seed: int = 0):
        """Deterministic shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(self.n_samples)
        cut = max(1, int(self.n_samples * train_fraction))
        tr, te = perm[:cut], perm[cut:]
        make = lambda idx: CorrelationDataset(  # noqa: E731
            X=self.X[idx],
            cheap_slack=self.cheap_slack[idx],
            golden_slack=self.golden_slack[idx],
            endpoint_names=[self.endpoint_names[i] for i in idx],
            feature_names=self.feature_names,
            cheap_runtime=self.cheap_runtime,
            golden_runtime=self.golden_runtime,
        )
        return make(tr), make(te)


def _endpoint_features(ep: EndpointTiming, congestion_mean: float) -> List[float]:
    return ep.features + [congestion_mean]


FEATURE_NAMES = EndpointTiming.FEATURE_NAMES + ("congestion_mean",)


def _prepare_designs(n_designs: int, seed: int, clock_period: float):
    """Synthesize/place/route a mix of profiles; yields analysis inputs."""
    rng = np.random.default_rng(seed)
    library = make_default_library()
    profiles = list(DRIVER_CLASSES.values())
    designs = []
    for i in range(n_designs):
        spec: DesignSpec = profiles[i % len(profiles)]
        netlist = synthesize(spec, library, effort=0.5, seed=int(rng.integers(0, 2**31 - 1)))
        floorplan = make_floorplan(netlist, utilization=float(rng.uniform(0.6, 0.85)))
        placement = QuadraticPlacer().place(netlist, floorplan, int(rng.integers(0, 2**31 - 1)))
        groute = GlobalRouter().route(placement, int(rng.integers(0, 2**31 - 1)))
        designs.append((netlist, placement, groute.congestion_map()))
    return designs


def build_correlation_dataset(
    n_designs: int = 8,
    clock_period: float = 1300.0,
    seed: int = 0,
) -> CorrelationDataset:
    """GraphSTA (cheap) vs SignoffSTA (golden) endpoint slacks."""
    designs = _prepare_designs(n_designs, seed, clock_period)
    rows, cheap, golden, names = [], [], [], []
    cheap_rt, golden_rt = [], []
    for k, (netlist, placement, congestion) in enumerate(designs):
        graph_report = GraphSTA().analyze(netlist, placement, clock_period)
        signoff_report = SignoffSTA().analyze(
            netlist, placement, clock_period, congestion=congestion
        )
        cheap_rt.append(graph_report.runtime_proxy)
        golden_rt.append(signoff_report.runtime_proxy)
        cong_mean = float(np.mean(congestion))
        for name, ep in graph_report.endpoints.items():
            rows.append(_endpoint_features(ep, cong_mean))
            cheap.append(ep.slack)
            golden.append(signoff_report.endpoints[name].slack)
            names.append(f"d{k}:{name}")
    return CorrelationDataset(
        X=np.array(rows),
        cheap_slack=np.array(cheap),
        golden_slack=np.array(golden),
        endpoint_names=names,
        feature_names=FEATURE_NAMES,
        cheap_runtime=float(np.mean(cheap_rt)),
        golden_runtime=float(np.mean(golden_rt)),
    )


def build_gba_pba_dataset(
    n_designs: int = 8,
    clock_period: float = 1300.0,
    seed: int = 0,
) -> CorrelationDataset:
    """Extension (1) of [20]: predict path-based from graph-based signoff.

    Cheap = SignoffSTA with PBA disabled (pure GBA), golden = with PBA.
    """
    designs = _prepare_designs(n_designs, seed, clock_period)
    rows, cheap, golden, names = [], [], [], []
    cheap_rt, golden_rt = [], []
    for k, (netlist, placement, congestion) in enumerate(designs):
        gba = SignoffSTA(pba=False).analyze(
            netlist, placement, clock_period, congestion=congestion
        )
        pba = SignoffSTA(pba=True).analyze(
            netlist, placement, clock_period, congestion=congestion
        )
        cheap_rt.append(gba.runtime_proxy)
        golden_rt.append(pba.runtime_proxy)
        cong_mean = float(np.mean(congestion))
        for name, ep in gba.endpoints.items():
            rows.append(_endpoint_features(ep, cong_mean))
            cheap.append(ep.slack)
            golden.append(pba.endpoints[name].slack)
            names.append(f"d{k}:{name}")
    return CorrelationDataset(
        X=np.array(rows),
        cheap_slack=np.array(cheap),
        golden_slack=np.array(golden),
        endpoint_names=names,
        feature_names=FEATURE_NAMES,
        cheap_runtime=float(np.mean(cheap_rt)),
        golden_runtime=float(np.mean(golden_rt)),
    )


def build_corner_dataset(
    n_designs: int = 8,
    clock_period: float = 1300.0,
    seed: int = 0,
    analyzed: Tuple[Corner, ...] = (TYPICAL, SLOW),
    missing: Corner = FAST,
) -> CorrelationDataset:
    """Extension (2) of [20]: predict timing at a missing corner.

    Features: endpoint structure plus the slacks at the *analyzed*
    corners; target: slack at the unanalyzed corner.  ``cheap_slack``
    holds the nearest analyzed corner's slack as the no-ML baseline.
    """
    if not analyzed:
        raise ValueError("need at least one analyzed corner")
    designs = _prepare_designs(n_designs, seed, clock_period)
    rows, cheap, golden, names = [], [], [], []
    cheap_rt, golden_rt = [], []
    for k, (netlist, placement, congestion) in enumerate(designs):
        reports = [
            SignoffSTA(corner=c).analyze(netlist, placement, clock_period, congestion=congestion)
            for c in analyzed
        ]
        target_report = SignoffSTA(corner=missing).analyze(
            netlist, placement, clock_period, congestion=congestion
        )
        cheap_rt.append(sum(r.runtime_proxy for r in reports))
        golden_rt.append(cheap_rt[-1] + target_report.runtime_proxy)
        cong_mean = float(np.mean(congestion))
        for name, ep in reports[0].endpoints.items():
            feats = _endpoint_features(ep, cong_mean)
            feats += [r.endpoints[name].slack for r in reports]
            rows.append(feats)
            cheap.append(reports[0].endpoints[name].slack)
            golden.append(target_report.endpoints[name].slack)
            names.append(f"d{k}:{name}")
    feature_names = FEATURE_NAMES + tuple(f"slack_{c.name}" for c in analyzed)
    return CorrelationDataset(
        X=np.array(rows),
        cheap_slack=np.array(cheap),
        golden_slack=np.array(golden),
        endpoint_names=names,
        feature_names=feature_names,
        cheap_runtime=float(np.mean(cheap_rt)),
        golden_runtime=float(np.mean(golden_rt)),
    )
