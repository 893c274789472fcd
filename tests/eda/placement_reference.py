"""Frozen copy of the post-bugfix scalar placement kernels (the golden
reference for the vectorized placement equivalence tests).

This is the literal scalar implementation the struct-of-arrays fast
paths replaced — per-site legality checks in the legalizer, per-move
full rescans of every touched net in the annealer — captured *after*
the three PR-7 bugfixes landed (shared ``bin_index`` binning, cooling
decay moved after the acceptance test, ``pad is not None`` presence
checks), so the equivalence suite compares the in-tree kernels against
the frozen historical behavior rather than against the code under test.
Not a test module — no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.floorplan import Floorplan, ROW_HEIGHT
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement

_CLIQUE_CAP = 8  # clique model samples at most this many pins per net


class ReferenceQuadraticPlacer:
    """The historical analytic placer with the scalar legalizer."""

    def __init__(self, spread_strength: float = 0.8):
        if not 0.0 <= spread_strength <= 1.0:
            raise ValueError("spread_strength must be in [0, 1]")
        self.spread_strength = spread_strength

    def place(
        self, netlist: Netlist, floorplan: Floorplan, seed: Optional[int] = None
    ) -> Placement:
        rng = np.random.default_rng(seed)
        names = list(netlist.instances)
        index = {n: i for i, n in enumerate(names)}
        n = len(names)
        if n == 0:
            return Placement(netlist, floorplan, {})

        lap = np.zeros((n, n))
        bx = np.zeros(n)
        by = np.zeros(n)
        anchor = 1e-6  # regularize unconnected components
        lap[np.diag_indices(n)] += anchor
        cx, cy = floorplan.width / 2, floorplan.height / 2
        bx += anchor * cx
        by += anchor * cy

        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            members = []
            if net.driver is not None:
                members.append(index[net.driver])
            members += [index[s] for s, _ in net.sinks]
            members = list(dict.fromkeys(members))
            pad = floorplan.pad_positions.get(net_name)
            k = len(members) + (1 if pad is not None else 0)
            if k < 2:
                continue
            w = 1.0 / (k - 1)
            if len(members) > _CLIQUE_CAP:
                members = [members[int(i)] for i in rng.choice(len(members), _CLIQUE_CAP, replace=False)]
            for a_pos, a in enumerate(members):
                for b in members[a_pos + 1 :]:
                    lap[a, a] += w
                    lap[b, b] += w
                    lap[a, b] -= w
                    lap[b, a] -= w
                if pad is not None:
                    lap[a, a] += w
                    bx[a] += w * pad[0]
                    by[a] += w * pad[1]

        xs = np.linalg.solve(lap, bx)
        ys = np.linalg.solve(lap, by)
        xs, ys = self._spread(xs, ys, floorplan)
        positions = {name: (float(xs[i]), float(ys[i])) for name, i in index.items()}
        placement = Placement(netlist, floorplan, positions)
        reference_legalize(placement, rng)
        return placement

    def _spread(self, xs: np.ndarray, ys: np.ndarray, fp: Floorplan):
        """Blend analytic coordinates with rank-uniform coordinates."""
        n = xs.shape[0]
        alpha = self.spread_strength
        rank_x = np.empty(n)
        rank_x[np.argsort(xs, kind="stable")] = (np.arange(n) + 0.5) / n * fp.width
        rank_y = np.empty(n)
        rank_y[np.argsort(ys, kind="stable")] = (np.arange(n) + 0.5) / n * fp.height
        xs = (1 - alpha) * xs + alpha * rank_x
        ys = (1 - alpha) * ys + alpha * rank_y
        return np.clip(xs, 0, fp.width), np.clip(ys, 0, fp.height)


def reference_legalize(placement: Placement, rng: np.random.Generator) -> None:
    """Snap cells to row/site grid, one cell per site, avoiding macros."""
    fp = placement.floorplan
    names = list(placement.positions)
    n = len(names)
    n_rows = fp.n_rows
    sites_per_row = max(1, int(np.ceil(n / n_rows * 1.25)))
    pitch = fp.width / sites_per_row

    free_sites = []
    for r in range(n_rows):
        y = (r + 0.5) * ROW_HEIGHT
        for c in range(sites_per_row):
            x = (c + 0.5) * pitch
            if not fp.in_macro(x, y):
                free_sites.append((x, y))
    if len(free_sites) < n:
        raise ValueError("floorplan has fewer legal sites than cells")

    # greedy nearest-site assignment in random order (seed-dependent)
    order = list(rng.permutation(n))
    site_arr = np.array(free_sites)
    taken = np.zeros(len(free_sites), dtype=bool)
    for idx in order:
        name = names[idx]
        x, y = placement.positions[name]
        d2 = (site_arr[:, 0] - x) ** 2 + (site_arr[:, 1] - y) ** 2
        d2[taken] = np.inf
        best = int(np.argmin(d2))
        taken[best] = True
        placement.positions[name] = (float(site_arr[best, 0]), float(site_arr[best, 1]))


class ReferenceAnnealingRefiner:
    """The post-bugfix scalar annealer, verbatim.

    Every move fully rescans every pin of every touched net; the
    cooling decay fires after the acceptance test of an evaluated move
    (``a == b`` skips neither evaluate nor decay).  After ``refine``,
    ``last_first_temperature`` / ``last_last_temperature`` /
    ``last_n_evaluated`` record the evaluated schedule.
    """

    def __init__(
        self,
        moves_per_cell: int = 30,
        t_start: float = 4.0,
        t_end: float = 0.05,
    ):
        if moves_per_cell < 1:
            raise ValueError("moves_per_cell must be >= 1")
        self.moves_per_cell = moves_per_cell
        self.t_start = t_start
        self.t_end = t_end
        self.last_first_temperature: Optional[float] = None
        self.last_last_temperature: Optional[float] = None
        self.last_n_evaluated: int = 0

    def refine(
        self,
        placement: Placement,
        seed: Optional[int] = None,
        net_weights: Optional[Dict[str, float]] = None,
    ) -> float:
        rng = np.random.default_rng(seed)
        netlist = placement.netlist
        names = list(netlist.instances)
        index = {n: i for i, n in enumerate(names)}
        n = len(names)
        self.last_first_temperature = None
        self.last_last_temperature = None
        self.last_n_evaluated = 0
        if n < 2:
            return placement.hpwl()

        pos_x = [placement.positions[nm][0] for nm in names]
        pos_y = [placement.positions[nm][1] for nm in names]
        nets_members: List[List[int]] = []
        nets_fixed: List[Optional[Tuple[float, float]]] = []
        nets_weight: List[float] = []
        inst_nets: List[List[int]] = [[] for _ in range(n)]
        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            members = []
            if net.driver is not None:
                members.append(index[net.driver])
            members += [index[s] for s, _ in net.sinks]
            members = list(dict.fromkeys(members))
            pad = placement.floorplan.pad_positions.get(net_name)
            if len(members) + (1 if pad is not None else 0) < 2:
                continue
            net_id = len(nets_members)
            nets_members.append(members)
            nets_fixed.append(pad)
            weight = 1.0 if net_weights is None else float(net_weights.get(net_name, 1.0))
            if weight <= 0:
                raise ValueError(f"net weight for {net_name} must be positive")
            nets_weight.append(weight)
            for m in members:
                inst_nets[m].append(net_id)

        def net_hpwl(net_id: int) -> float:
            members = nets_members[net_id]
            pad = nets_fixed[net_id]
            if pad is not None:
                x_lo = x_hi = pad[0]
                y_lo = y_hi = pad[1]
            else:
                first = members[0]
                x_lo = x_hi = pos_x[first]
                y_lo = y_hi = pos_y[first]
            for m in members:
                x = pos_x[m]
                y = pos_y[m]
                if x < x_lo:
                    x_lo = x
                elif x > x_hi:
                    x_hi = x
                if y < y_lo:
                    y_lo = y
                elif y > y_hi:
                    y_hi = y
            return ((x_hi - x_lo) + (y_hi - y_lo)) * nets_weight[net_id]

        n_moves = self.moves_per_cell * n
        cool = (self.t_end / self.t_start) ** (1.0 / max(1, n_moves - 1))
        t = self.t_start
        pairs = rng.integers(0, n, size=(n_moves, 2))
        uniforms = rng.random(n_moves)
        exp = math.exp
        for move in range(n_moves):
            a, b = int(pairs[move, 0]), int(pairs[move, 1])
            if a == b:
                continue
            seen = set(inst_nets[a])
            touched = inst_nets[a] + [nid for nid in inst_nets[b] if nid not in seen]
            before = 0.0
            for net_id in touched:
                before += net_hpwl(net_id)
            pos_x[a], pos_x[b] = pos_x[b], pos_x[a]
            pos_y[a], pos_y[b] = pos_y[b], pos_y[a]
            after = 0.0
            for net_id in touched:
                after += net_hpwl(net_id)
            delta = after - before
            if delta > 0 and uniforms[move] >= exp(-delta / t):
                pos_x[a], pos_x[b] = pos_x[b], pos_x[a]  # reject
                pos_y[a], pos_y[b] = pos_y[b], pos_y[a]
            if self.last_first_temperature is None:
                self.last_first_temperature = t
            self.last_last_temperature = t
            self.last_n_evaluated += 1
            t *= cool

        for i, nm in enumerate(names):
            placement.positions[nm] = (pos_x[i], pos_y[i])
        return placement.hpwl()
