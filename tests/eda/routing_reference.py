"""Frozen copy of the post-bugfix scalar routing kernels (the golden
reference for the vectorized routing equivalence tests).

This is the literal per-edge-loop implementation the struct-of-arrays
fast paths replaced, captured *after* the PR-7 bugfix that routed gcell
binning through the shared floor-and-clamp rule (inlined here as
``_bin`` so the reference stays frozen even if ``repro.eda.grid``
evolves).  The detailed router keeps the historical per-cell multinomial
scatter loop.  Not a test module — no ``test_`` prefix, so pytest does
not collect it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.eda.placement import Placement
from repro.eda.routing import (
    SUCCESS_DRV_THRESHOLD,
    DetailedRouteResult,
    GlobalRouteResult,
)


def _bin(coord: float, extent: float, n_bins: int) -> int:
    """Floor-based clamped binning, frozen (same rule as grid.bin_index)."""
    return min(n_bins - 1, max(0, int(math.floor(coord / extent * n_bins))))


class ReferenceGlobalRouter:
    """The historical grid router: per-edge Python cost/commit loops."""

    def __init__(
        self,
        nx: int = 16,
        ny: int = 16,
        tracks_per_um: float = 16.0,
        negotiation_rounds: int = 3,
        overflow_penalty: float = 2.0,
    ):
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2")
        if tracks_per_um <= 0:
            raise ValueError("tracks_per_um must be positive")
        self.nx = nx
        self.ny = ny
        self.tracks_per_um = tracks_per_um
        self.negotiation_rounds = negotiation_rounds
        self.overflow_penalty = overflow_penalty

    def route(self, placement: Placement, seed: Optional[int] = None) -> GlobalRouteResult:
        rng = np.random.default_rng(seed)
        fp = placement.floorplan
        netlist = placement.netlist
        nx, ny = self.nx, self.ny
        cap_h = self.tracks_per_um * fp.height / ny
        cap_v = self.tracks_per_um * fp.width / nx

        # Build two-pin segments per net: chain pins in x order.
        segments: List[Tuple[int, int, int, int]] = []
        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            pts = []
            if net.driver is not None:
                pts.append(placement.positions[net.driver])
            pts += [placement.positions[s] for s, _ in net.sinks]
            pad = fp.pad_positions.get(net_name)
            if pad is not None:
                pts.append(pad)
            if len(pts) < 2:
                continue
            pts.sort()
            for a, b in zip(pts[:-1], pts[1:]):
                ia = _bin(a[0], fp.width, nx)
                ja = _bin(a[1], fp.height, ny)
                ib = _bin(b[0], fp.width, nx)
                jb = _bin(b[1], fp.height, ny)
                if (ia, ja) != (ib, jb):
                    segments.append((ia, ja, ib, jb))

        demand_h = np.zeros((ny, max(1, nx - 1)))
        demand_v = np.zeros((max(1, ny - 1), nx))
        routes: List[Tuple[bool, Tuple[int, int, int, int]]] = []
        penalty = self.overflow_penalty

        def run_cost_h(j: int, lo: int, hi: int) -> float:
            over = 0.0
            for i in range(lo, hi):
                over += max(0.0, demand_h[j, i] + 1.0 - cap_h)
            return (hi - lo) + penalty * over

        def run_cost_v(i: int, lo: int, hi: int) -> float:
            over = 0.0
            for j in range(lo, hi):
                over += max(0.0, demand_v[j, i] + 1.0 - cap_v)
            return (hi - lo) + penalty * over

        def l_cost(seg, horizontal_first: bool) -> float:
            ia, ja, ib, jb = seg
            ilo, ihi = min(ia, ib), max(ia, ib)
            jlo, jhi = min(ja, jb), max(ja, jb)
            if horizontal_first:
                return run_cost_h(ja, ilo, ihi) + run_cost_v(ib, jlo, jhi)
            return run_cost_v(ia, jlo, jhi) + run_cost_h(jb, ilo, ihi)

        def commit(seg, horizontal_first: bool, sign: float) -> None:
            ia, ja, ib, jb = seg
            if horizontal_first:
                for i in range(min(ia, ib), max(ia, ib)):
                    demand_h[ja, i] += sign
                for j2 in range(min(ja, jb), max(ja, jb)):
                    demand_v[j2, ib] += sign
            else:
                for j2 in range(min(ja, jb), max(ja, jb)):
                    demand_v[j2, ia] += sign
                for i2 in range(min(ia, ib), max(ia, ib)):
                    demand_h[jb, i2] += sign

        # initial routing pass (random tie-break between the two L shapes)
        for seg in segments:
            c_hf = l_cost(seg, True)
            c_vf = l_cost(seg, False)
            if abs(c_hf - c_vf) < 1e-9:
                hf = bool(rng.integers(0, 2))
            else:
                hf = c_hf < c_vf
            commit(seg, hf, +1.0)
            routes.append((hf, seg))

        # negotiation: rip up and reroute every segment with updated costs
        for _ in range(self.negotiation_rounds):
            new_routes = []
            for hf, seg in routes:
                commit(seg, hf, -1.0)
                c_hf = l_cost(seg, True)
                c_vf = l_cost(seg, False)
                if abs(c_hf - c_vf) < 1e-9:
                    new_hf = bool(rng.integers(0, 2))
                else:
                    new_hf = c_hf < c_vf
                commit(seg, new_hf, +1.0)
                new_routes.append((new_hf, seg))
            routes = new_routes

        gx = fp.width / nx
        gy = fp.height / ny
        wirelength = float(demand_h.sum() * gx + demand_v.sum() * gy)
        return GlobalRouteResult(
            nx=nx,
            ny=ny,
            demand_h=demand_h,
            demand_v=demand_v,
            capacity_h=cap_h,
            capacity_v=cap_v,
            wirelength=wirelength,
        )


class ReferenceDetailedRouter:
    """The historical rip-up engine with the per-cell scatter loop."""

    def __init__(
        self,
        max_iterations: int = 20,
        effort: float = 0.6,
        drv_seed_rate: float = 30.0,
        spill_rate: float = 0.55,
        shock_prob: float = 0.3,
        shock_frac: float = 0.6,
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < effort <= 1.0:
            raise ValueError("effort must be in (0, 1]")
        if not 0.0 <= shock_prob <= 1.0:
            raise ValueError("shock_prob must be in [0, 1]")
        self.max_iterations = max_iterations
        self.effort = effort
        self.drv_seed_rate = drv_seed_rate
        self.spill_rate = spill_rate
        self.shock_prob = shock_prob
        self.shock_frac = shock_frac

    def route(
        self,
        congestion: np.ndarray,
        seed: Optional[int] = None,
        stop_callback=None,
    ) -> DetailedRouteResult:
        cong = np.asarray(congestion, dtype=float)
        if cong.ndim != 2:
            raise ValueError("congestion map must be 2-D")
        rng = np.random.default_rng(seed)

        excess = np.maximum(0.0, cong - 0.9)
        lam = self.drv_seed_rate * (excess * 10.0) ** 1.5 + 0.3 * cong
        violations = rng.poisson(lam).astype(float)

        history: List[int] = [int(violations.sum())]
        stopped = False
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            violations = self._iterate(violations, cong, rng)
            history.append(int(violations.sum()))
            if stop_callback is not None and stop_callback(list(history)):
                stopped = True
                break
            if history[-1] == 0:
                break

        return DetailedRouteResult(
            drvs_per_iteration=history,
            success=history[-1] < SUCCESS_DRV_THRESHOLD and not stopped,
            iterations_run=iterations,
            stopped_early=stopped,
            metadata={
                "mean_congestion": float(cong.mean()),
                "max_congestion": float(cong.max()),
                "overflow_fraction": float((cong > 1.0).mean()),
            },
        )

    def _iterate(
        self, violations: np.ndarray, cong: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        slack = 1.0 - cong
        p_fix = self.effort * _sigmoid(6.0 * slack + 0.5)
        fixed = rng.binomial(violations.astype(int), np.clip(p_fix, 0.0, 1.0))
        neighborhood = _box_mean(cong)
        p_spill = self.spill_rate * _sigmoid(8.0 * (neighborhood - 1.0))
        spilled = rng.binomial(fixed, np.clip(p_spill, 0.0, 1.0))
        remaining = violations - fixed
        incoming = _scatter_to_neighbors(spilled, rng)
        out = np.maximum(0.0, remaining + incoming)
        if self.shock_prob > 0 and rng.random() < self.shock_prob:
            total = out.sum()
            if total > 0:
                lam = self.shock_frac * total * cong / max(1e-9, cong.sum())
                out = out + rng.poisson(lam)
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50)))


def _box_mean(grid: np.ndarray) -> np.ndarray:
    padded = np.pad(grid, 1, mode="edge")
    out = np.zeros_like(grid)
    for dj in range(3):
        for di in range(3):
            out += padded[dj : dj + grid.shape[0], di : di + grid.shape[1]]
    return out / 9.0


def _scatter_to_neighbors(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-cell multinomial loop (the frozen historical scatter)."""
    out = np.zeros_like(counts, dtype=float)
    ny, nx = counts.shape
    js, is_ = np.nonzero(counts)
    if js.size == 0:
        return out
    n_per_cell = counts[js, is_].astype(int)
    draws = np.stack([rng.multinomial(n, [0.25] * 4) for n in n_per_cell])
    for d, (dj, di) in enumerate(((0, 1), (0, -1), (1, 0), (-1, 0))):
        tj = np.clip(js + dj, 0, ny - 1)
        ti = np.clip(is_ + di, 0, nx - 1)
        np.add.at(out, (tj, ti), draws[:, d])
    return out
