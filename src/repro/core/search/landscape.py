"""The optimization landscape: balanced netlist bisection.

Bisection (min-cut partitioning under a balance constraint) is the
domain where the paper's refs [5] (Boese-Kahng-Muddu) and [12]
(Hagen-Kahng) established the "big valley" picture: local minima
cluster, and better minima sit closer to the best known minimum.
:func:`big_valley_correlation` measures exactly that statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.netlist import Netlist


def clique_edges(netlist: Netlist) -> Tuple[List[str], List[Tuple[int, int, float]]]:
    """The instance clique graph of a netlist: instance names, and one
    ``(u, v, weight)`` edge per connected pair of instance indices.

    Each signal net (the clock excluded) of k >= 2 distinct instances
    adds 1/(k-1) to every pair it connects.  The bisection landscape
    and the k-way partitioner both search this graph.
    """
    names = list(netlist.instances)
    index = {n: i for i, n in enumerate(names)}
    weights: Dict[Tuple[int, int], float] = {}
    for net_name, net in netlist.nets.items():
        if net_name == netlist.clock_net:
            continue
        members = []
        if net.driver is not None:
            members.append(index[net.driver])
        members += [index[s] for s, _ in net.sinks]
        members = sorted(set(members))
        if len(members) < 2:
            continue
        w = 1.0 / (len(members) - 1)
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                weights[(a, b)] = weights.get((a, b), 0.0) + w
    return names, [(u, v, w) for (u, v), w in weights.items()]


@dataclass
class BisectionProblem:
    """Balanced graph bisection: minimize cut weight.

    A solution is a boolean vector (side per node).  Balance requires
    each side to hold at least ``floor(n/2) - tolerance`` nodes.
    """

    n_nodes: int
    edges: List[Tuple[int, int, float]]
    tolerance: int = 2

    def __post_init__(self):
        if self.n_nodes < 4:
            raise ValueError("need at least 4 nodes")
        for u, v, w in self.edges:
            if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
                raise ValueError(f"edge ({u},{v}) out of range")
            if w <= 0:
                raise ValueError("edge weights must be positive")
        # adjacency lists for fast gain computation
        self._adj: List[List[Tuple[int, float]]] = [[] for _ in range(self.n_nodes)]
        for u, v, w in self.edges:
            self._adj[u].append((v, w))
            self._adj[v].append((u, w))

    # ------------------------------------------------------------------
    @classmethod
    def from_netlist(cls, netlist: Netlist, tolerance: int = 2) -> "BisectionProblem":
        """Clique-model graph of a netlist's instances."""
        names, edges = clique_edges(netlist)
        return cls(n_nodes=len(names), edges=edges, tolerance=tolerance)

    @classmethod
    def random_community(
        cls,
        n_nodes: int = 64,
        n_communities: int = 8,
        p_in: float = 0.5,
        p_out: float = 0.03,
        seed: Optional[int] = None,
    ) -> "BisectionProblem":
        """Planted community structure (produces a pronounced big valley)."""
        if n_communities < 2 or n_nodes < 2 * n_communities:
            raise ValueError("need at least 2 communities and enough nodes")
        rng = np.random.default_rng(seed)
        community = np.repeat(np.arange(n_communities), n_nodes // n_communities)
        community = np.concatenate([community, rng.integers(0, n_communities, n_nodes - community.size)])
        edges = []
        for u in range(n_nodes):
            for v in range(u + 1, n_nodes):
                p = p_in if community[u] == community[v] else p_out
                if rng.random() < p:
                    edges.append((u, v, 1.0))
        return cls(n_nodes=n_nodes, edges=edges)

    # ------------------------------------------------------------------
    def cost(self, assign: np.ndarray) -> float:
        """Total weight of cut edges."""
        assign = np.asarray(assign, dtype=bool)
        if assign.shape != (self.n_nodes,):
            raise ValueError("assignment length mismatch")
        return float(
            sum(w for u, v, w in self.edges if assign[u] != assign[v])
        )

    def is_balanced(self, assign: np.ndarray) -> bool:
        ones = int(np.sum(assign))
        low = self.n_nodes // 2 - self.tolerance
        high = self.n_nodes - low
        return low <= ones <= high

    def random_solution(self, rng: np.random.Generator) -> np.ndarray:
        assign = np.zeros(self.n_nodes, dtype=bool)
        half = self.n_nodes // 2
        assign[rng.choice(self.n_nodes, half, replace=False)] = True
        return assign

    def gain(self, assign: np.ndarray, node: int) -> float:
        """Cut reduction if ``node`` flips sides."""
        g = 0.0
        side = assign[node]
        for other, w in self._adj[node]:
            g += w if assign[other] != side else -w
        return g

    def local_search(
        self, assign: np.ndarray, rng: np.random.Generator, max_passes: int = 10
    ) -> np.ndarray:
        """Greedy pass-based improvement (FM-flavoured, single moves).

        Repeatedly flips the best-gain node whose flip keeps balance,
        until a pass yields no improvement.
        """
        assign = np.asarray(assign, dtype=bool).copy()
        for _ in range(max_passes):
            improved = False
            order = rng.permutation(self.n_nodes)
            for node in order:
                if not self._can_flip(assign, node):
                    continue
                if self.gain(assign, node) > 1e-12:
                    assign[node] = ~assign[node]
                    improved = True
            if not improved:
                break
        return assign

    def _can_flip(self, assign: np.ndarray, node: int) -> bool:
        trial = assign.copy()
        trial[node] = ~trial[node]
        return self.is_balanced(trial)

    def distance(self, a: np.ndarray, b: np.ndarray) -> int:
        """Hamming distance up to side-label symmetry."""
        a = np.asarray(a, dtype=bool)
        b = np.asarray(b, dtype=bool)
        d = int(np.sum(a != b))
        return min(d, self.n_nodes - d)


def big_valley_correlation(
    problem: BisectionProblem,
    n_starts: int = 40,
    seed: Optional[int] = None,
) -> Tuple[float, List[np.ndarray], List[float]]:
    """The big-valley statistic: corr(cost, distance to best minimum).

    Runs ``n_starts`` random-start local searches, finds the best local
    minimum, and correlates each minimum's cost with its distance to
    the best.  A strongly positive correlation is the "big valley"
    structure adaptive multistart exploits (paper Fig 6(b)).
    """
    if n_starts < 3:
        raise ValueError("need at least 3 starts")
    rng = np.random.default_rng(seed)
    minima = [
        problem.local_search(problem.random_solution(rng), rng) for _ in range(n_starts)
    ]
    costs = [problem.cost(m) for m in minima]
    best = minima[int(np.argmin(costs))]
    dists = np.array([problem.distance(m, best) for m in minima], dtype=float)
    costs_arr = np.array(costs)
    if np.std(dists) == 0 or np.std(costs_arr) == 0:
        return 0.0, minima, costs
    corr = float(np.corrcoef(costs_arr, dists)[0, 1])
    return corr, minima, costs
