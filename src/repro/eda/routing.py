"""Routing: global routing with congestion negotiation, and a
detailed-routing iteration engine with per-iteration DRV accounting.

The global router works on a gcell grid with per-edge capacities,
decomposes each net into two-pin segments, routes each as the cheaper
L-shape, and runs a few negotiation rounds that penalize overflowed
edges (PathFinder-style).  Its product is a *congestion map* — routing
demand over capacity per gcell.

The detailed router is the substrate for the paper's doomed-run
experiments (Sec 3.3, Figs 9-10).  Modern detailed routers iterate
rip-up-and-reroute, and tool logfiles expose one DRV count per
iteration.  Ours maintains per-gcell violation counts seeded by the
actual congestion map and evolves them by local fix/spill dynamics:
violations in gcells with routing slack get fixed; fixing in overloaded
neighborhoods spills new violations into adjacent gcells.  When total
demand genuinely exceeds supply the run plateaus (doomed); when supply
is ample DRVs decay geometrically (successful) — the trajectory classes
of Fig 9 emerge from the grid state rather than from curve templates.

A detailed-routing run *is* its trajectory, and ``max_iterations`` only
says where it stops: on the same congestion map, settings and seed, a
10-iteration run is exactly the first 10 iterations of a 30-iteration
one.  So the router's state is resumable.  :meth:`DetailedRouter.start`
seeds a :class:`RouteTrajectory` (the violation grid, the generator's
state and the DRV history), and :meth:`DetailedRouter.route` advances
one: it replays the iterations already in the history without drawing,
runs only the ones past its end, and calls ``stop_callback`` with
exactly the histories a fresh run would.  A fresh run is ``start`` plus
that same loop, so a resumed run draws nothing twice and equals a fresh
one.  The trajectory keeps the generator's state, not the generator: a
run builds a generator from it only to draw past the history, and
writes the advanced state back after each iteration it runs.

Both routers run struct-of-arrays kernels: segments come from one global
lexsort + batched gcell binning, L-shape costs are evaluated over flat
per-row/per-column demand lists — skipped entirely via per-row/column
hot-edge counts when a row has no overflowed edge — the L-shape
tie-breaks read bits from one batched ``integers(0, 2, size=...)``
draw, and the detailed router's rip-up scatter draws one batched
multinomial.  Each is bitwise-identical to the historical per-edge
Python loops — same RNG values in the same order (tie-breaks and
scatter draws), same float operations in the same order — which are
frozen as ``tests/eda/routing_reference.py`` with an equivalence suite
over demand grids, congestion maps, and DRV trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.grid import gcell_indices
from repro.eda.placement import Placement

#: A run "succeeds" if it ends with fewer DRVs than this (paper Sec 3.3).
SUCCESS_DRV_THRESHOLD = 200


@dataclass
class GlobalRouteResult:
    """Global routing outcome on an ``ny x nx`` gcell grid."""

    nx: int
    ny: int
    demand_h: np.ndarray  # (ny, nx-1) horizontal edge usage
    demand_v: np.ndarray  # (ny-1, nx) vertical edge usage
    capacity_h: float
    capacity_v: float
    wirelength: float

    @property
    def overflow(self) -> float:
        """Total routed demand above capacity, over all edges."""
        over_h = np.maximum(0.0, self.demand_h - self.capacity_h).sum()
        over_v = np.maximum(0.0, self.demand_v - self.capacity_v).sum()
        return float(over_h + over_v)

    @property
    def max_congestion(self) -> float:
        """Worst edge demand / capacity ratio."""
        h = (self.demand_h / self.capacity_h).max() if self.demand_h.size else 0.0
        v = (self.demand_v / self.capacity_v).max() if self.demand_v.size else 0.0
        return float(max(h, v))

    def congestion_map(self) -> np.ndarray:
        """Per-gcell demand/capacity ratio (average of incident edges)."""
        grid = np.zeros((self.ny, self.nx))
        counts = np.zeros((self.ny, self.nx))
        if self.demand_h.size:
            ratio_h = self.demand_h / self.capacity_h
            grid[:, :-1] += ratio_h
            grid[:, 1:] += ratio_h
            counts[:, :-1] += 1
            counts[:, 1:] += 1
        if self.demand_v.size:
            ratio_v = self.demand_v / self.capacity_v
            grid[:-1, :] += ratio_v
            grid[1:, :] += ratio_v
            counts[:-1, :] += 1
            counts[1:, :] += 1
        counts[counts == 0] = 1
        return grid / counts


class GlobalRouter:
    """Grid-based global router with negotiated congestion."""

    def __init__(
        self,
        nx: int = 16,
        ny: int = 16,
        tracks_per_um: float = 16.0,
        negotiation_rounds: int = 3,
        overflow_penalty: float = 2.0,
    ):
        """``tracks_per_um`` is the routing supply density: edge capacity
        is the gcell boundary length times this (summing the usable
        metal layers), so supply scales with die size the way real
        enablement does.  ``nx``, ``ny`` (>= 2) and
        ``negotiation_rounds`` (>= 0) are integers; ``tracks_per_um`` is
        positive and finite, ``overflow_penalty`` finite and >= 0."""
        for knob, value in (("nx", nx), ("ny", ny),
                            ("negotiation_rounds", negotiation_rounds)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
        if nx < 2 or ny < 2:
            raise ValueError("grid must be at least 2x2")
        if negotiation_rounds < 0:
            raise ValueError("negotiation_rounds must be >= 0")
        if not (tracks_per_um > 0 and math.isfinite(tracks_per_um)):
            raise ValueError("tracks_per_um must be positive and finite")
        if not (overflow_penalty >= 0 and math.isfinite(overflow_penalty)):
            raise ValueError("overflow_penalty must be finite and >= 0")
        self.nx = nx
        self.ny = ny
        self.tracks_per_um = tracks_per_um
        self.negotiation_rounds = negotiation_rounds
        self.overflow_penalty = overflow_penalty

    def route(self, placement: Placement, seed: Optional[int] = None) -> GlobalRouteResult:
        rng = np.random.default_rng(seed)
        fp = placement.floorplan
        nx, ny = self.nx, self.ny
        cap_h = self.tracks_per_um * fp.height / ny  # tracks crossing a vertical boundary
        cap_v = self.tracks_per_um * fp.width / nx

        segments = self._segments(placement)
        demand_h, demand_v = self._negotiate(segments, cap_h, cap_v, rng)

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

    # ------------------------------------------------------ segment build
    def _segments(self, placement: Placement) -> List[Tuple[int, int, int, int]]:
        """Two-pin segments per net: chain pins in (x, y) order.

        Points are keyed (net ordinal, x, y) so one lexsort reproduces
        every per-net ``pts.sort()``; binning is the vectorized
        :func:`gcell_indices` (the shared floor-and-clamp rule) over all
        pins at once.  Produces the same segments in the same order as
        the historical per-net loop.
        """
        fp = placement.floorplan
        netlist = placement.netlist
        positions = placement.positions
        xs: List[float] = []
        ys: List[float] = []
        nids: List[int] = []
        k = 0
        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            start = len(xs)
            if net.driver is not None:
                x, y = positions[net.driver]
                xs.append(x)
                ys.append(y)
            for s, _ in net.sinks:
                x, y = positions[s]
                xs.append(x)
                ys.append(y)
            pad = fp.pad_positions.get(net_name)
            if pad is not None:
                xs.append(pad[0])
                ys.append(pad[1])
            n_pts = len(xs) - start
            if n_pts < 2:
                del xs[start:], ys[start:]
                continue
            nids.extend([k] * n_pts)
            k += 1
        if not xs:
            return []
        xa = np.asarray(xs)
        ya = np.asarray(ys)
        na = np.asarray(nids)
        order = np.lexsort((ya, xa, na))
        xa, ya, na = xa[order], ya[order], na[order]
        gi, gj = gcell_indices(xa, ya, fp.width, fp.height, self.nx, self.ny)
        same_net = na[1:] == na[:-1]
        ia, ib = gi[:-1][same_net], gi[1:][same_net]
        ja, jb = gj[:-1][same_net], gj[1:][same_net]
        keep = (ia != ib) | (ja != jb)
        cols = np.stack((ia[keep], ja[keep], ib[keep], jb[keep]), axis=1)
        return [tuple(row) for row in cols.tolist()]

    # ---------------------------------------------------------- negotiation
    def _negotiate(self, segments, cap_h: float, cap_v: float,
                   rng: np.random.Generator):
        """Struct-of-rows kernel: flat row/column lists plus hot counts.

        Demand lives in plain per-row (and per-column, for the vertical
        layer) float lists instead of a numpy grid, so the negotiation
        loop pays list-index costs rather than numpy scalar-indexing
        dispatch on every edge.  Demand stays integer-valued, so an edge
        is "hot" (contributes a nonzero overflow term) iff
        ``demand + 1 > cap``; per-row and per-column hot-edge counts —
        maintained incrementally as commits cross the capacity
        threshold — let runs through clean rows cost exactly ``hi - lo``
        without touching a single edge.  Skipping the ``over += 0.0``
        terms of cold edges is bitwise-safe (the accumulator never goes
        negative), so every cost, tie-break, and RNG draw matches the
        historical per-edge kernel exactly.

        Each segment's sorted spans are computed once, not once per
        pass.  A tie takes one bit, and a pass visits each segment once,
        so ``n_segs * (1 + negotiation_rounds)`` bits drawn in one
        ``rng.integers(0, 2, size=...)`` cover every tie: the batched
        draw yields the values of that many single draws, and nothing
        draws from ``rng`` afterwards.
        """
        nx, ny = self.nx, self.ny
        penalty = self.overflow_penalty
        dh = [[0.0] * max(1, nx - 1) for _ in range(ny)]
        dvc = [[0.0] * max(1, ny - 1) for _ in range(nx)]  # column-major
        hot_h = [0] * ny
        hot_v = [0] * nx

        def run_cost_h(j: int, lo: int, hi: int) -> float:
            if lo == hi or not hot_h[j]:
                return float(hi - lo)
            row = dh[j]
            over = 0.0
            for i in range(lo, hi):
                d = row[i] + 1.0 - cap_h
                if d > 0.0:
                    over += d
            return (hi - lo) + penalty * over

        def run_cost_v(i: int, lo: int, hi: int) -> float:
            if lo == hi or not hot_v[i]:
                return float(hi - lo)
            col = dvc[i]
            over = 0.0
            for j in range(lo, hi):
                d = col[j] + 1.0 - cap_v
                if d > 0.0:
                    over += d
            return (hi - lo) + penalty * over

        def commit(row_idx: int, col_idx: int, ilo: int, ihi: int,
                   jlo: int, jhi: int, sign: float) -> None:
            if ihi > ilo:
                row = dh[row_idx]
                hot = hot_h[row_idx]
                for i in range(ilo, ihi):
                    d = row[i]
                    nd = d + sign
                    row[i] = nd
                    if (nd + 1.0 > cap_h) != (d + 1.0 > cap_h):
                        hot += 1 if nd > d else -1
                hot_h[row_idx] = hot
            if jhi > jlo:
                col = dvc[col_idx]
                hot = hot_v[col_idx]
                for j in range(jlo, jhi):
                    d = col[j]
                    nd = d + sign
                    col[j] = nd
                    if (nd + 1.0 > cap_v) != (d + 1.0 > cap_v):
                        hot += 1 if nd > d else -1
                hot_v[col_idx] = hot

        n_segs = len(segments)
        spans = [((ia, ib) if ia <= ib else (ib, ia))
                 + ((ja, jb) if ja <= jb else (jb, ja))
                 for ia, ja, ib, jb in segments]
        # one bit per segment visit covers every tie (see above)
        bits = rng.integers(0, 2, size=n_segs * (1 + self.negotiation_rounds)).tolist()
        n_ties = 0
        hfs = [False] * n_segs
        for pass_no in range(1 + self.negotiation_rounds):
            rip_up = pass_no > 0
            for s in range(n_segs):
                ia, ja, ib, jb = segments[s]
                ilo, ihi, jlo, jhi = spans[s]
                if rip_up:
                    if hfs[s]:
                        commit(ja, ib, ilo, ihi, jlo, jhi, -1.0)
                    else:
                        commit(jb, ia, ilo, ihi, jlo, jhi, -1.0)
                c_hf = run_cost_h(ja, ilo, ihi) + run_cost_v(ib, jlo, jhi)
                c_vf = run_cost_v(ia, jlo, jhi) + run_cost_h(jb, ilo, ihi)
                if abs(c_hf - c_vf) < 1e-9:
                    hf = bits[n_ties] == 1
                    n_ties += 1
                else:
                    hf = c_hf < c_vf
                if hf:
                    commit(ja, ib, ilo, ihi, jlo, jhi, +1.0)
                else:
                    commit(jb, ia, ilo, ihi, jlo, jhi, +1.0)
                hfs[s] = hf
        demand_h = np.array(dh, dtype=float)
        demand_v = np.ascontiguousarray(np.array(dvc, dtype=float).T)
        return demand_h, demand_v


@dataclass
class DetailedRouteResult:
    """Per-iteration DRV trajectory of one detailed-routing run."""

    drvs_per_iteration: List[int]
    success: bool
    iterations_run: int
    stopped_early: bool = False
    metadata: Dict[str, float] = field(default_factory=dict)

    @property
    def final_drvs(self) -> int:
        return self.drvs_per_iteration[-1] if self.drvs_per_iteration else 0

    @property
    def initial_drvs(self) -> int:
        return self.drvs_per_iteration[0] if self.drvs_per_iteration else 0


@dataclass
class RouteTrajectory:
    """Where one detailed-routing run stands; a longer run resumes it.

    ``history`` holds the DRV count after each iteration (index 0 is the
    seeded count), ``violations`` the per-gcell grid after its last
    entry, and ``rng_state`` the ``bit_generator.state`` of the
    generator positioned for the next iteration: a plain dict, so a
    trajectory pickles and unpickles without building a generator, and
    a run that only replays its history never builds one.  It belongs
    to one congestion map, seed and set of
    :attr:`DetailedRouter.trajectory_settings`, whatever the cap.
    """

    violations: np.ndarray
    rng_state: Dict[str, object]
    history: List[int]


class DetailedRouter:
    """Rip-up-and-reroute iteration engine over a congestion grid.

    ``effort`` in (0, 1] scales the per-iteration fix rate (a router
    effort knob); ``max_iterations`` defaults to 20 as in the paper's
    Fig 9 ("modern detailed routers default to 20-40 iterations").
    """

    def __init__(
        self,
        max_iterations: int = 20,
        effort: float = 0.6,
        drv_seed_rate: float = 30.0,
        spill_rate: float = 0.55,
        shock_prob: float = 0.3,
        shock_frac: float = 0.6,
    ):
        """``max_iterations`` is an integer >= 1, ``effort`` in (0, 1]
        and ``shock_prob`` in [0, 1]; ``drv_seed_rate``, ``spill_rate``
        and ``shock_frac`` are finite and >= 0."""
        if isinstance(max_iterations, bool) or not isinstance(
                max_iterations, (int, np.integer)):
            raise ValueError(f"max_iterations must be an integer, got {max_iterations!r}")
        if max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < effort <= 1.0:
            raise ValueError("effort must be in (0, 1]")
        if not 0.0 <= shock_prob <= 1.0:
            raise ValueError("shock_prob must be in [0, 1]")
        for knob, value in (("drv_seed_rate", drv_seed_rate),
                            ("spill_rate", spill_rate), ("shock_frac", shock_frac)):
            if not (value >= 0 and math.isfinite(value)):
                raise ValueError(f"{knob} must be finite and >= 0, got {value!r}")
        self.max_iterations = max_iterations
        self.effort = effort
        self.drv_seed_rate = drv_seed_rate
        self.spill_rate = spill_rate
        self.shock_prob = shock_prob
        self.shock_frac = shock_frac

    @property
    def trajectory_settings(self) -> Tuple[float, ...]:
        """Every setting a trajectory depends on: all but
        ``max_iterations``, which only says where a run stops."""
        return (float(self.effort), float(self.drv_seed_rate),
                float(self.spill_rate), float(self.shock_prob),
                float(self.shock_frac))

    def start(self, congestion: np.ndarray, seed: Optional[int] = None) -> RouteTrajectory:
        """Seed the violations of a run on ``congestion`` (iteration 0)."""
        cong = _congestion_grid(congestion)
        rng = np.random.default_rng(seed)
        # Seed violations: grows sharply where demand exceeds ~90% of capacity.
        excess = np.maximum(0.0, cong - 0.9)
        lam = self.drv_seed_rate * (excess * 10.0) ** 1.5 + 0.3 * cong
        violations = rng.poisson(lam).astype(float)
        return RouteTrajectory(violations=violations, rng_state=rng.bit_generator.state,
                               history=[int(violations.sum())])

    def route(
        self,
        congestion: np.ndarray,
        seed: Optional[int] = None,
        stop_callback=None,
        trajectory: Optional[RouteTrajectory] = None,
    ) -> DetailedRouteResult:
        """Run detailed routing against a gcell congestion map.

        ``congestion`` is demand/capacity per gcell (from
        :meth:`GlobalRouteResult.congestion_map`).  ``stop_callback``,
        if given, is called after each iteration with the DRV history;
        returning True terminates the run early (the hook the doomed-run
        predictor uses).

        ``trajectory``, if given, is one :meth:`start` seeded on this
        congestion map and ``seed`` for a router with these
        :attr:`trajectory_settings` (at any ``max_iterations``): the run
        resumes it instead of seeding its own, advances it in place as
        far as the run gets, and returns what a fresh run returns.
        """
        cong = _congestion_grid(congestion)
        if trajectory is None:
            trajectory = self.start(cong, seed)
        elif trajectory.violations.shape != cong.shape:
            raise ValueError("trajectory was started on a congestion map of another shape")
        history = trajectory.history

        stopped = False
        rng = None
        for iterations in range(1, self.max_iterations + 1):
            if iterations == len(history):  # past the trajectory's end
                if rng is None:
                    rng = _resume_generator(trajectory.rng_state)
                    rates = self._rates(cong)
                trajectory.violations = self._iterate(
                    trajectory.violations, cong, *rates, rng)
                trajectory.rng_state = rng.bit_generator.state
                history.append(int(trajectory.violations.sum()))
            if stop_callback is not None and stop_callback(history[:iterations + 1]):
                stopped = True
                break
            if history[iterations] == 0:
                break
        drvs = history[:iterations + 1]

        return DetailedRouteResult(
            drvs_per_iteration=drvs,
            success=drvs[-1] < SUCCESS_DRV_THRESHOLD and not stopped,
            iterations_run=iterations,
            stopped_early=stopped,
            metadata={
                "mean_congestion": float(cong.mean()),
                "max_congestion": float(cong.max()),
                "overflow_fraction": float((cong > 1.0).mean()),
            },
        )

    def _rates(self, cong: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-gcell fix and spill probabilities, fixed for the run:
        fixes succeed where the gcell has routing slack, and fixes in
        congested neighborhoods spill into adjacent gcells instead of
        removing violations."""
        p_fix = np.clip(self.effort * _sigmoid(6.0 * (1.0 - cong) + 0.5), 0.0, 1.0)
        p_spill = np.clip(
            self.spill_rate * _sigmoid(8.0 * (_box_mean(cong) - 1.0)), 0.0, 1.0
        )
        return p_fix, p_spill

    def _iterate(
        self,
        violations: np.ndarray,
        cong: np.ndarray,
        p_fix: np.ndarray,
        p_spill: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One rip-up-and-reroute pass at the run's fix and spill rates."""
        fixed = rng.binomial(violations.astype(int), p_fix)
        spilled = rng.binomial(fixed, p_spill)
        remaining = violations - fixed
        incoming = _scatter_to_neighbors(spilled, rng)
        out = np.maximum(0.0, remaining + incoming)
        # reroute shock: opening a region for rip-up occasionally exposes
        # new violations (pin access, via shorts) in proportion to local
        # demand — this makes even healthy runs non-monotone
        if self.shock_prob > 0 and rng.random() < self.shock_prob:
            total = out.sum()
            if total > 0:
                lam = self.shock_frac * total * cong / max(1e-9, cong.sum())
                out = out + rng.poisson(lam)
        return out


def _resume_generator(state: Dict[str, object]) -> np.random.Generator:
    """A generator at ``state``, a ``bit_generator.state`` that
    :meth:`DetailedRouter.start` left.  The bit generator's own seed
    is overwritten before anything is drawn."""
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _congestion_grid(congestion: np.ndarray) -> np.ndarray:
    cong = np.asarray(congestion, dtype=float)
    if cong.ndim != 2:
        raise ValueError("congestion map must be 2-D")
    return cong


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -50, 50)))


def _box_mean(grid: np.ndarray) -> np.ndarray:
    """3x3 neighborhood mean with edge replication."""
    padded = np.pad(grid, 1, mode="edge")
    out = np.zeros_like(grid)
    for dj in range(3):
        for di in range(3):
            out += padded[dj : dj + grid.shape[0], di : di + grid.shape[1]]
    return out / 9.0


def _scatter_to_neighbors(counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Move each count into a random 4-neighbor gcell (multinomial split).

    The batched draw (``rng.multinomial`` over the whole count vector)
    consumes the generator stream exactly like the historical per-cell
    loop, so both produce identical scatters from the same seed.  Draws
    off the grid fold back onto the edge gcell; the moved counts are
    whole numbers, so ``np.bincount`` adds them up exactly.
    """
    ny, nx = counts.shape
    cells = np.flatnonzero(counts)
    if cells.size == 0:
        return np.zeros((ny, nx))
    draws = rng.multinomial(counts.ravel()[cells].astype(int), [0.25] * 4)
    js, is_ = np.divmod(cells, nx)
    targets = np.concatenate((
        js * nx + np.minimum(is_ + 1, nx - 1),  # (0, +1)
        js * nx + np.maximum(is_ - 1, 0),  # (0, -1)
        np.minimum(js + 1, ny - 1) * nx + is_,  # (+1, 0)
        np.maximum(js - 1, 0) * nx + is_,  # (-1, 0)
    ))
    out = np.bincount(targets, weights=draws.T.ravel(), minlength=ny * nx)
    return out.reshape(ny, nx)
