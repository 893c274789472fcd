"""Vectorized-STA benchmark: full_propagate, SoA kernel vs per-node loop.

The STA kernel's ``full_propagate`` was rewritten as flat numpy
struct-of-arrays sweeps (levelized frontier arrays, CSR fanin segments
with ``reduceat`` merges, batched delay-policy evaluation).  This
benchmark builds the **largest corpus design** (the GPU shader profile)
through placement and global routing, then times ``full_propagate`` on
two kernels from the same inputs:

- the live struct-of-arrays numpy kernel;
- ``PerNodeTimingGraph``, the historical per-node kernel frozen in
  ``tests/eda/sta_reference.py`` as an honest comparator: plain dicts,
  every node through its own ``_compute_*`` call.  The frozen engines
  there cannot serve: they only time propagate and report together.

Checks (exit code 1 on failure):

- every propagated per-net column (late/early arrivals, slews,
  predecessor chains, net loads) is **bit-identical** across the two
  kernels, and the live report equals the frozen engine's, for both
  engines at the signoff corner mix;
- the vectorized kernel is >= 5x faster on ``full_propagate``.

``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"vectorized"`` key (see ``make bench-trajectory``); ``--smoke``
reduces repetitions for CI while keeping every assertion.  The script
puts the repository root on ``sys.path`` to import the frozen kernel.

Usage::

    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py
    PYTHONPATH=src python benchmarks/vectorized_sta_benchmark.py --smoke \
        --json BENCH_sta.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.bench.generators import design_profile
from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.sta import PI_SLEW, GraphSTA, SignoffSTA, SLOW
from repro.eda.synthesis import synthesize

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.eda import sta_reference as ref  # noqa: E402

CLOCK = 1100.0
#: live engine -> the frozen engine whose hooks drive the per-node kernel
FROZEN = {"graph": ref.GraphSTA(ref.SLOW), "signoff": ref.SignoffSTA(ref.SLOW)}


def build_kernels(engine, netlist, placement, skews, congestion):
    """``engine``'s timing graph and the per-node kernel over the same
    inputs, both checking hold."""
    graph = engine.build_graph(netlist, placement, skews=skews,
                               congestion=congestion, check_hold=True)
    per_node = ref.PerNodeTimingGraph(
        FROZEN[engine.engine_name], netlist, placement, skews=skews,
        congestion=congestion, check_hold=True,
    )
    return graph, per_node


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


def states_identical(graph, per_node) -> bool:
    """Each per-net array of the live kernel equals the per-node dict
    bit for bit; a net absent from a dict holds the fill value."""
    index = graph.topology.net_index
    names = index.names
    columns = (
        ("load", graph._load, [per_node.net_load.get(n, 0.0) for n in names]),
        ("arrival", graph._arrival, [per_node.arrival.get(n, 0.0) for n in names]),
        ("slew", graph._slew, [per_node.slew.get(n, PI_SLEW) for n in names]),
        ("arrival_min", graph._arrival_min,
         [per_node.arrival_min.get(n, 0.0) for n in names]),
        ("pred", graph._pred, [index.ids.get(per_node.pred.get(n), -1) for n in names]),
    )
    for attr, got, want in columns:
        want = np.array(want, dtype=got.dtype)
        if got.shape != want.shape or not np.array_equal(
                got.view(np.int64), want.view(np.int64)):
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
        graph, per_node = build_kernels(engine, netlist, placement, skews,
                                        congestion)
        graph.full_propagate()
        per_node.full_propagate()
        if not states_identical(graph, per_node):
            identical = False
        want = FROZEN[engine.engine_name].analyze(
            netlist, placement, CLOCK, skews, congestion, check_hold=True)
        if not reports_identical(graph.report(CLOCK), want):
            print(f"FAIL: {engine.engine_name} report differs from the "
                  "frozen engine")
            identical = False
    if identical:
        print("bit-identical: per-net columns and reports, both engines "
              "(signoff corner, hold + PBA)")

    # --- wall clock -------------------------------------------------------
    graph, per_node = build_kernels(SignoffSTA(SLOW), netlist, placement,
                                    skews, congestion)
    t_vec = time_full_propagate(graph, repeats)
    t_scalar = time_full_propagate(per_node, repeats)
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
