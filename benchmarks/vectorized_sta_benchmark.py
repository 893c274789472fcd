"""Vectorized-STA benchmark: full_propagate, SoA kernel vs per-node loop.

The STA kernel's ``full_propagate`` was rewritten as flat numpy
struct-of-arrays sweeps (levelized frontier arrays, CSR fanin segments
with ``reduceat`` merges, batched delay-policy evaluation).  This
benchmark builds the **largest corpus design** (the GPU shader profile)
through placement and global routing, then times ``full_propagate`` on
two kernels from the same inputs:

- the live struct-of-arrays numpy kernel;
- :func:`propagate_per_node`, the historical scalar dict-and-loop full
  propagation kept here verbatim as an honest comparator: plain dicts,
  no array façades, every node through the live per-node
  ``TimingGraph._compute_*`` methods (the ones incremental ``update``
  runs).  The frozen engine in ``tests/eda/sta_reference.py`` cannot
  serve: it only times propagate and report together.

Checks (exit code 1 on failure):

- every propagated state map (late/early arrivals, slews, predecessor
  chains, net loads) and the resulting :class:`TimingReport` are
  **bit-identical** across the two kernels, for both engines at the
  signoff corner mix;
- the vectorized kernel is >= 5x faster on ``full_propagate``.

``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"vectorized"`` key (see ``make bench-trajectory``); ``--smoke``
reduces repetitions for CI while keeping every assertion.

Usage::

    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py
    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py --smoke \
        --json BENCH_sta.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types

import numpy as np

from repro.bench.generators import design_profile
from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.sta import PI_SLEW, GraphSTA, SignoffSTA, SLOW
from repro.eda.sta.graph import _NetPredMap, _NetValueMap
from repro.eda.synthesis import synthesize

CLOCK = 1100.0
STATE_MAPS = ("_arrival", "_arrival_min", "_slew", "_pred", "_net_load")


def propagate_per_node(self) -> int:
    """The historical per-node full propagation loop (comparator).

    Bound onto one :class:`~repro.eda.sta.TimingGraph` by
    :func:`build_graph` in place of its vectorized kernel, so
    ``full_propagate()`` keeps its bookkeeping and only the kernel
    differs.
    """
    netlist = self.netlist
    topo = self.topology
    ops = 0

    self._net_load = {}
    for net_name in netlist.nets:
        if net_name == netlist.clock_net:
            continue
        self._net_load[net_name] = self._net_load_of(net_name)

    self._arrival = {}
    self._slew = {}
    self._pred = {}
    self._arrival_min = {}
    for pi in netlist.primary_inputs:
        if pi == netlist.clock_net:
            continue
        self._arrival[pi] = 0.0
        self._slew[pi] = PI_SLEW
        self._pred[pi] = None
    for inst in netlist.sequential_instances():
        ops += self._compute_seq(inst)
    for name in topo.order:
        ops += self._compute_comb(netlist.instances[name])

    if self.check_hold:
        for pi in netlist.primary_inputs:
            if pi != netlist.clock_net:
                self._arrival_min[pi] = 0.0
        for inst in netlist.sequential_instances():
            self._compute_seq_min(inst)
        for name in topo.order:
            ops += self._compute_comb_min(netlist.instances[name])

    return ops


def publish_columns(graph) -> None:
    """Move the per-node kernel's dict state behind the kernel's array
    façades, which ``TimingGraph.report`` reads as per-net columns.
    Runs after (never inside) a timed propagation."""
    index = graph.topology.net_index
    for attr, fill in (("_net_load", 0.0), ("_arrival", 0.0),
                       ("_slew", PI_SLEW), ("_arrival_min", 0.0)):
        columns = _NetValueMap(index, fill=fill)
        for net_name, value in getattr(graph, attr).items():
            columns[net_name] = value
        setattr(graph, attr, columns)
    preds = _NetPredMap(index)
    for net_name, pred in graph._pred.items():
        preds[net_name] = pred
    graph._pred = preds


def build_graph(engine, netlist, placement, skews, congestion, per_node: bool):
    """``engine``'s timing graph, with the per-node loop as its
    full-propagation kernel when ``per_node``."""
    graph = engine.build_graph(netlist, placement, skews=skews,
                               congestion=congestion, check_hold=True)
    if per_node:
        graph._propagate_vectorized = types.MethodType(propagate_per_node, graph)
    return graph


def build_state(seed: int):
    """Implement the GPU shader profile up to the timing stage."""
    lib = make_default_library()
    spec = design_profile("gpu_shader")
    netlist = synthesize(spec, lib, effort=0.6, seed=seed)
    floorplan = make_floorplan(netlist, utilization=0.7)
    placement = QuadraticPlacer().place(netlist, floorplan, seed=seed + 1)
    clock_tree = ClockTreeSynthesizer(0.5).synthesize(netlist, placement, seed + 2)
    congestion = GlobalRouter().route(placement, seed=seed + 3).congestion_map()
    return netlist, placement, clock_tree.skews, congestion


def time_full_propagate(graph, repeats: int) -> float:
    """Best-of-``repeats`` seconds for one ``full_propagate`` call."""
    graph.full_propagate()  # warm: SoA build, cell registry, allocations
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        graph.full_propagate()
        best = min(best, time.perf_counter() - t0)
    return best


def states_identical(vec, scalar) -> bool:
    for attr in STATE_MAPS:
        if dict(getattr(vec, attr).items()) != dict(getattr(scalar, attr).items()):
            print(f"FAIL: {attr} differs between kernels")
            return False
    return True


def reports_identical(got, want) -> bool:
    if list(got.endpoints) != list(want.endpoints):
        return False
    for name in got.endpoints:
        a, b = got.endpoints[name], want.endpoints[name]
        if (a.arrival, a.slack, a.hold_slack, a.path_slew) != (
                b.arrival, b.slack, b.hold_slack, b.path_slew):
            return False
    return got.runtime_proxy == want.runtime_proxy and got.paths == want.paths


def merge_json(path: str, key: str, payload: dict) -> None:
    """Merge ``payload`` under ``key`` into the JSON file at ``path``."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        data = {}
    data[key] = payload
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="flow seed")
    parser.add_argument("--repeats", type=int, default=20,
                        help="timing repetitions (best-of)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required vectorized/per-node speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="CI run: fewer repetitions, same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge results under 'vectorized' in PATH")
    args = parser.parse_args(argv)
    repeats = 5 if args.smoke else args.repeats

    netlist, placement, skews, congestion = build_state(args.seed)
    n_insts = len(netlist.instances)
    print(f"gpu_shader ({n_insts} instances, {len(netlist.nets)} nets), "
          f"seed={args.seed}, best of {repeats}")

    # --- bit-identity across both engines --------------------------------
    identical = True
    for engine in (GraphSTA(SLOW), SignoffSTA(SLOW)):
        pair = {}
        for per_node in (False, True):
            g = build_graph(engine, netlist, placement, skews, congestion, per_node)
            g.full_propagate()
            pair[per_node] = g
        if not states_identical(pair[False], pair[True]):
            identical = False
        publish_columns(pair[True])
        if not reports_identical(pair[False].report(CLOCK),
                                 pair[True].report(CLOCK)):
            print(f"FAIL: {engine.engine_name} reports differ between kernels")
            identical = False
    if identical:
        print("bit-identical: state maps and reports, both engines "
              "(signoff corner, hold + PBA)")

    # --- wall clock -------------------------------------------------------
    signoff = SignoffSTA(SLOW)
    t_vec = time_full_propagate(
        build_graph(signoff, netlist, placement, skews, congestion, False),
        repeats)
    t_scalar = time_full_propagate(
        build_graph(signoff, netlist, placement, skews, congestion, True),
        repeats)
    speedup = t_scalar / t_vec if t_vec > 0 else float("inf")
    print(f"full_propagate: per-node={t_scalar * 1e3:.2f} ms  "
          f"vectorized={t_vec * 1e3:.2f} ms  -> {speedup:.1f}x")

    if args.json:
        merge_json(args.json, "vectorized", {
            "design": "gpu_shader",
            "instances": n_insts,
            "scalar_ms": round(t_scalar * 1e3, 4),
            "vectorized_ms": round(t_vec * 1e3, 4),
            "speedup": round(speedup, 2),
            "bit_identical": identical,
        })
        print(f"wrote 'vectorized' section to {args.json}")

    if not identical:
        return 1
    if speedup < args.min_speedup:
        print(f"FAIL: expected >= {args.min_speedup:.1f}x speedup, "
              f"got {speedup:.1f}x")
        return 1
    print(f"OK: >= {args.min_speedup:.1f}x faster at bitwise-identical reports")
    return 0


if __name__ == "__main__":
    sys.exit(main())
