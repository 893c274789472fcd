"""K-way netlist partitioning by recursive bisection."""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.search.landscape import BisectionProblem, clique_edges
from repro.eda.netlist import Netlist


def _bisect_subset(
    nodes: List[int],
    edges: List[Tuple[int, int, float]],
    rng: np.random.Generator,
) -> Tuple[List[int], List[int]]:
    """Bisect one subset of the global graph with local search."""
    local = {node: i for i, node in enumerate(nodes)}
    induced = [
        (local[u], local[v], w)
        for u, v, w in edges
        if u in local and v in local
    ]
    if len(nodes) < 4 or not induced:
        half = len(nodes) // 2
        shuffled = list(nodes)
        rng.shuffle(shuffled)
        return shuffled[:half], shuffled[half:]
    problem = BisectionProblem(n_nodes=len(nodes), edges=induced)
    best_assign = None
    best_cost = np.inf
    for _ in range(3):  # small multistart
        assign = problem.local_search(problem.random_solution(rng), rng)
        cost = problem.cost(assign)
        if cost < best_cost:
            best_cost = cost
            best_assign = assign
    left = [nodes[i] for i in range(len(nodes)) if not best_assign[i]]
    right = [nodes[i] for i in range(len(nodes)) if best_assign[i]]
    return left, right


def kway_partition(
    netlist: Netlist, k: int, seed: Optional[int] = None
) -> List[List[str]]:
    """Split instances into ``k`` balanced blocks (k must be a power of 2).

    Recursive min-cut bisection over the instance clique graph; every
    instance lands in exactly one block.
    """
    if k < 2 or (k & (k - 1)) != 0:
        raise ValueError("k must be a power of 2 and >= 2")
    if netlist.n_instances < 2 * k:
        raise ValueError(f"netlist too small for {k} partitions")
    rng = np.random.default_rng(seed)
    names, edges = clique_edges(netlist)
    blocks: List[List[int]] = [list(range(len(names)))]
    while len(blocks) < k:
        next_blocks = []
        for block in blocks:
            left, right = _bisect_subset(block, edges, rng)
            next_blocks += [left, right]
        blocks = next_blocks
    return [[names[i] for i in sorted(block)] for block in blocks]


def cut_nets(netlist: Netlist, blocks: List[List[str]]) -> Set[str]:
    """Signal nets whose pins span more than one block (or a block and
    the top-level IO)."""
    owner: Dict[str, int] = {}
    for block_id, block in enumerate(blocks):
        for name in block:
            owner[name] = block_id
    missing = set(netlist.instances) - set(owner)
    if missing:
        raise ValueError(f"{len(missing)} instances not assigned to any block")
    cut: Set[str] = set()
    for net_name, net in netlist.nets.items():
        if net_name == netlist.clock_net:
            continue
        touched = set()
        if net.driver is not None:
            touched.add(owner[net.driver])
        else:
            touched.add(-1)  # primary input
        for sink, _ in net.sinks:
            touched.add(owner[sink])
        if net_name in netlist.primary_outputs:
            touched.add(-2)
        if len(touched) > 1:
            cut.add(net_name)
    return cut
