"""Front-end kernel benchmark: synthesis, annealer and router vs the frozen loops.

Three per-object hot loops of the flow were rewritten as kernels:

- ``synthesize``: the per-draw ``rng.choice(level, p=p)`` (which
  re-validates ``p`` and rebuilds its CDF every call) was replaced by a
  CDF built once per level and a ``bisect_right`` over it, drawing the
  same uniforms;

- ``AnnealingRefiner``: per-move full rescans of every touched net were
  replaced by exclusion-bounding-box move pricing — each (net, pin) slot
  caches the bbox of *all other* pins, so pricing a swap is O(1) per net
  instead of O(fanout), and boxes are rebuilt only on accepted moves.
- ``GlobalRouter``: the per-edge numpy-indexing cost/commit loops were
  replaced by a struct-of-rows kernel with incremental hot-edge counts,
  so congestion-free runs price in O(1) instead of O(run length).

The comparators are the frozen historical loops the equivalence suite
already trusts — ``reference_synthesize`` from
``tests/eda/synthesis_reference.py``, ``ReferenceAnnealingRefiner`` from
``tests/eda/placement_reference.py`` and ``ReferenceGlobalRouter`` from
``tests/eda/routing_reference.py`` — so the speedup is measured against
the code the live kernels replaced, and the bit-identity check is the
same oracle.  The script puts the repository root on ``sys.path`` to
import them.

Workloads are chosen to exercise the asymptotics honestly:

- Synthesis generates the GPU shader profile, the largest corpus
  design (about 1,100 gates, four source-level draws at most per gate
  input).
- The annealer design is built directly on the :class:`Netlist` API: a
  locality-biased NAND cloud plus a handful of high-fanout control nets
  (reset / scan-enable style, fanout in the hundreds before buffering —
  the tail the synthesis generator's geometric fanout model truncates).
  The reference annealer rescans those nets on almost every move.
- The router workload is the largest corpus design (GPU shader profile)
  on a fine 64x64 gcell grid, where runs span many edges and congestion
  hot spots exercise the overflow path.

Checks (exit code 1 on failure):

- synth: instances, cells, input nets, every net's sink list, primary
  outputs and clock are **bit-identical** to the reference; >= 2x
  faster;
- annealer: refined positions, HPWL, and the evaluated cooling schedule
  are **bit-identical** to the reference; >= 5x faster;
- router: demand grids, wirelength, and congestion map are
  **bit-identical** to the reference; >= 3x faster.

The JSON keys keep their historical names: ``scalar_ms`` is the
reference loop, ``vectorized_ms`` the live kernel.

``--json PATH`` merges machine-readable summaries into ``PATH`` under
the ``"synth"``, ``"annealer"`` and ``"groute"`` keys (see
``make bench-trajectory``);
``--smoke`` reduces repetitions for CI while keeping every assertion.

Usage::

    PYTHONPATH=src python benchmarks/vectorized_place_route_benchmark.py
    PYTHONPATH=src python benchmarks/vectorized_place_route_benchmark.py \
        --smoke --json BENCH_place_route.json
"""

from __future__ import annotations

import argparse
import copy
import gc
import os
import sys
import time

import numpy as np

from repro.bench.generators import design_profile
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.netlist import Netlist
from repro.eda.placement import AnnealingRefiner, AnnealSchedule, QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.synthesis import synthesize

from vectorized_sta_benchmark import merge_json

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.eda.placement_reference import ReferenceAnnealingRefiner  # noqa: E402
from tests.eda.routing_reference import ReferenceGlobalRouter  # noqa: E402
from tests.eda.synthesis_reference import reference_synthesize  # noqa: E402

MIN_SYNTH_SPEEDUP = 2.0  # the floor check_bench_regression.py also holds
SYNTH_DESIGN = "gpu_shader"
SYNTH_EFFORT = 0.5
N_GATES = 1600
N_CONTROLS = 6
DATA_WINDOW = 24
MOVES_PER_CELL = 12
GROUTE_GRID = 64
GROUTE_TRACKS = 32.0


def build_anneal_placement(seed: int):
    """A NAND cloud with a realistic high-fanout control-net tail.

    Each gate combines a recent data output (short-reach, window-local)
    with one of ``N_CONTROLS`` control nets, so every control net fans
    out to ~``N_GATES / N_CONTROLS`` sinks — the pre-buffering fanout of
    a reset or scan-enable net, which the reference annealer rescans in
    full on almost every move.
    """
    lib = make_default_library()
    netlist = Netlist("anneal_bench", lib)
    rng = np.random.default_rng(seed)
    for i in range(8):
        netlist.add_primary_input(f"pi{i}")
    netlist.add_primary_input("clk")
    netlist.set_clock("clk")
    nand = lib.pick("NAND2")
    inv = lib.pick("INV")
    control_nets = []
    for c in range(N_CONTROLS):
        inst = netlist.add_instance(f"ctrl{c}", inv, [f"pi{c % 8}"])
        control_nets.append(inst.output_net)
    data = [f"pi{i}" for i in range(8)]
    for g in range(N_GATES):
        d = data[int(rng.integers(max(0, len(data) - DATA_WINDOW), len(data)))]
        ctrl = control_nets[int(rng.integers(N_CONTROLS))]
        inst = netlist.add_instance(f"g{g}", nand, [d, ctrl])
        data.append(inst.output_net)
    netlist.mark_primary_output(data[-1])
    floorplan = make_floorplan(netlist, utilization=0.7)
    return QuadraticPlacer().place(netlist, floorplan, seed=seed + 1)


def build_route_placement(seed: int):
    """The GPU shader profile placed for the routing benchmark."""
    lib = make_default_library()
    spec = design_profile("gpu_shader")
    netlist = synthesize(spec, lib, effort=0.6, seed=seed)
    floorplan = make_floorplan(netlist, utilization=0.7)
    return QuadraticPlacer().place(netlist, floorplan, seed=seed + 1)


def time_synth(spec, lib, seed: int, repeats: int):
    """Best-of-``repeats`` seconds of the live and the frozen generator,
    timed alternately so host drift hits both; returns both times and
    both netlists."""
    best = {synthesize: float("inf"), reference_synthesize: float("inf")}
    netlists = {}
    for _ in range(repeats):
        for generator in best:
            gc.collect()
            gc.disable()  # keep collector pauses out of the timed window
            try:
                t0 = time.perf_counter()
                netlists[generator] = generator(spec, lib, effort=SYNTH_EFFORT, seed=seed)
                best[generator] = min(best[generator], time.perf_counter() - t0)
            finally:
                gc.enable()
    return (best[synthesize], netlists[synthesize],
            best[reference_synthesize], netlists[reference_synthesize])


def netlist_bits(netlist):
    """Everything synthesis decides, in the order it decided it."""
    return (
        [(name, inst.cell.name, list(inst.input_nets), inst.output_net)
         for name, inst in netlist.instances.items()],
        [(name, net.driver, list(net.sinks)) for name, net in netlist.nets.items()],
        list(netlist.primary_inputs),
        list(netlist.primary_outputs),
        netlist.clock_net,
    )


def time_anneal(refiner, placement, seed: int, repeats: int):
    """Best-of-``repeats`` seconds for one ``refine`` on a fresh copy;
    returns the time and ``(placement, hpwl, refiner)``."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        scratch = copy.deepcopy(placement)
        gc.collect()
        gc.disable()  # keep collector pauses out of the timed window
        try:
            t0 = time.perf_counter()
            hpwl = refiner.refine(scratch, seed=seed)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        result = (scratch, hpwl, refiner)
    return best, result


def time_route(router, placement, seed: int, repeats: int):
    """Best-of-``repeats`` seconds for one global ``route`` call."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        gc.collect()
        gc.disable()  # keep collector pauses out of the timed window
        try:
            t0 = time.perf_counter()
            result = router.route(placement, seed=seed)
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best, result


def anneal_identical(fast, reference) -> bool:
    (p_fast, h_fast, live) = fast
    (p_ref, h_ref, frozen) = reference
    if h_fast != h_ref:
        print("FAIL: annealer HPWL differs from the reference")
        return False
    if p_fast.positions != p_ref.positions:
        print("FAIL: annealer positions differ from the reference")
        return False
    if live.last_schedule != AnnealSchedule(frozen.last_first_temperature,
                                            frozen.last_last_temperature,
                                            frozen.last_n_evaluated):
        print("FAIL: annealer cooling schedule differs from the reference")
        return False
    return True


def route_identical(fast, reference) -> bool:
    if not (np.array_equal(fast.demand_h, reference.demand_h)
            and np.array_equal(fast.demand_v, reference.demand_v)):
        print("FAIL: router demand grids differ from the reference")
        return False
    if fast.wirelength != reference.wirelength:
        print("FAIL: router wirelength differs from the reference")
        return False
    if not np.array_equal(fast.congestion_map(), reference.congestion_map()):
        print("FAIL: router congestion maps differ from the reference")
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7, help="flow seed")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best-of)")
    parser.add_argument("--min-anneal-speedup", type=float, default=5.0,
                        help="required annealer live/reference speedup")
    parser.add_argument("--min-groute-speedup", type=float, default=3.0,
                        help="required global-route live/reference speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="CI run: fewer repetitions, same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge results under 'synth'/'annealer'/'groute' in PATH")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else args.repeats
    ok = True

    # --- synthesis --------------------------------------------------------
    lib = make_default_library()
    spec = design_profile(SYNTH_DESIGN)
    print(f"synth: {SYNTH_DESIGN} ({spec.n_gates} gates, depth {spec.depth}) "
          f"at effort {SYNTH_EFFORT}, best of {5 * repeats}")
    # a generator run is short: time a few more of them than of the others
    t_fast, fast, t_scalar, scalar = time_synth(spec, lib, args.seed, 5 * repeats)
    synth_ok = netlist_bits(fast) == netlist_bits(scalar)
    synth_speedup = t_scalar / t_fast if t_fast > 0 else float("inf")
    if synth_ok:
        print("bit-identical: instances, cells, input nets, sinks, outputs, clock")
    else:
        print("FAIL: synthesized netlist differs from the reference")
    print(f"synthesize: reference={t_scalar * 1e3:.1f} ms  "
          f"live={t_fast * 1e3:.1f} ms  -> {synth_speedup:.1f}x")
    if args.json:
        merge_json(args.json, "synth", {
            "design": SYNTH_DESIGN,
            "instances": len(fast.instances),
            "scalar_ms": round(t_scalar * 1e3, 4),
            "vectorized_ms": round(t_fast * 1e3, 4),
            "speedup": round(synth_speedup, 2),
            "bit_identical": synth_ok,
        })
    if not synth_ok:
        ok = False
    if synth_speedup < MIN_SYNTH_SPEEDUP:
        print(f"FAIL: expected >= {MIN_SYNTH_SPEEDUP:.1f}x synthesis "
              f"speedup, got {synth_speedup:.1f}x")
        ok = False

    # --- annealer ---------------------------------------------------------
    placement = build_anneal_placement(args.seed)
    n_insts = len(placement.netlist.instances)
    print(f"annealer: anneal_bench ({n_insts} instances, "
          f"{len(placement.netlist.nets)} nets, {N_CONTROLS} control nets "
          f"of fanout ~{N_GATES // N_CONTROLS}), "
          f"moves_per_cell={MOVES_PER_CELL}, best of {repeats}")
    t_fast, fast = time_anneal(AnnealingRefiner(moves_per_cell=MOVES_PER_CELL),
                               placement, args.seed + 2, repeats)
    t_scalar, scalar = time_anneal(
        ReferenceAnnealingRefiner(moves_per_cell=MOVES_PER_CELL),
        placement, args.seed + 2, repeats)
    anneal_ok = anneal_identical(fast, scalar)
    anneal_speedup = t_scalar / t_fast if t_fast > 0 else float("inf")
    if anneal_ok:
        print("bit-identical: positions, HPWL, and cooling schedule")
    print(f"refine: reference={t_scalar * 1e3:.1f} ms  "
          f"live={t_fast * 1e3:.1f} ms  -> {anneal_speedup:.1f}x")
    if args.json:
        merge_json(args.json, "annealer", {
            "design": "anneal_bench",
            "instances": n_insts,
            "scalar_ms": round(t_scalar * 1e3, 4),
            "vectorized_ms": round(t_fast * 1e3, 4),
            "speedup": round(anneal_speedup, 2),
            "bit_identical": anneal_ok,
        })
    if not anneal_ok:
        ok = False
    if anneal_speedup < args.min_anneal_speedup:
        print(f"FAIL: expected >= {args.min_anneal_speedup:.1f}x annealer "
              f"speedup, got {anneal_speedup:.1f}x")
        ok = False

    # --- global router ----------------------------------------------------
    placement = build_route_placement(args.seed)
    n_insts = len(placement.netlist.instances)
    print(f"groute: gpu_shader ({n_insts} instances) on "
          f"{GROUTE_GRID}x{GROUTE_GRID} gcells at "
          f"{GROUTE_TRACKS:g} tracks/um, best of {repeats}")
    grid = dict(nx=GROUTE_GRID, ny=GROUTE_GRID, tracks_per_um=GROUTE_TRACKS)
    t_fast, fast = time_route(GlobalRouter(**grid), placement,
                              args.seed + 3, repeats)
    t_scalar, scalar = time_route(ReferenceGlobalRouter(**grid), placement,
                                  args.seed + 3, repeats)
    route_ok = route_identical(fast, scalar)
    route_speedup = t_scalar / t_fast if t_fast > 0 else float("inf")
    if route_ok:
        print("bit-identical: demand grids, wirelength, congestion map")
    print(f"route: reference={t_scalar * 1e3:.1f} ms  "
          f"live={t_fast * 1e3:.1f} ms  -> {route_speedup:.1f}x  "
          f"(overflow={fast.overflow:.1f})")
    if args.json:
        merge_json(args.json, "groute", {
            "design": "gpu_shader",
            "instances": n_insts,
            "scalar_ms": round(t_scalar * 1e3, 4),
            "vectorized_ms": round(t_fast * 1e3, 4),
            "speedup": round(route_speedup, 2),
            "bit_identical": route_ok,
        })
        print(f"wrote 'synth', 'annealer' and 'groute' sections to {args.json}")
    if not route_ok:
        ok = False
    if route_speedup < args.min_groute_speedup:
        print(f"FAIL: expected >= {args.min_groute_speedup:.1f}x "
              f"global-route speedup, got {route_speedup:.1f}x")
        ok = False

    if ok:
        print(f"OK: synth >= {MIN_SYNTH_SPEEDUP:.1f}x, annealer >= "
              f"{args.min_anneal_speedup:.1f}x and groute "
              f">= {args.min_groute_speedup:.1f}x at bitwise-identical results")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
