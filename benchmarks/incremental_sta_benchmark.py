"""Incremental-STA benchmark: timing closure on PULPino, two ways.

The optimizer's inner loop is the dominant timing consumer in the flow
(paper Sec 3: repeated analyze -> tweak -> re-analyze cycles).  This
benchmark runs timing closure to convergence on the PULPino profile
twice from identical starting states:

- the full-reanalysis baseline: the frozen pre-refactor optimizer and
  engine (``ReferenceTimingOptimizer`` driving ``GraphSTA`` from
  ``tests/eda/sta_reference.py``), where every pass pays a full STA
  run; its cost is the sum of every ``analyze``'s ``runtime_proxy``;
- the live :class:`~repro.eda.opt.TimingOptimizer`: one
  ``full_propagate`` up front, then each pass's touched instances go
  through ``TimingGraph.update`` and only the dirty fanout cones are
  re-propagated.

Checks (exit code 1 on failure):

- final QoR is **bit-identical**: same WNS, same endpoint slacks, same
  upsize/downsize/VT-swap decisions, same area and leakage deltas —
  the incremental path is a pure cost optimization;
- the incremental run executes >= 2x less timing ``runtime_proxy``
  than the full-analysis run (``StaStats.proxy_executed``).

Smoke mode (``--smoke``) shrinks the design so the whole benchmark
runs in a few seconds for CI while still asserting everything above.
``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"incremental"`` key (see ``make bench-trajectory``).  The script
puts the repository root on ``sys.path`` to import the frozen
reference.

Usage::

    PYTHONPATH=src python benchmarks/incremental_sta_benchmark.py
    PYTHONPATH=src python benchmarks/incremental_sta_benchmark.py --smoke
"""

from __future__ import annotations

import argparse
import copy
import os
import sys

from repro.bench.generators import pulpino_profile
from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.opt import TimingOptimizer
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.sta import GraphSTA
from repro.eda.synthesis import synthesize

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from tests.eda import sta_reference as ref  # noqa: E402

#: the optimizer settings both runs share
OPTIMIZER = {"max_passes": 30, "cells_per_pass": 8, "guardband": 10.0}


class CountingGraphSTA(ref.GraphSTA):
    """The frozen embedded timer, summing every ``analyze``'s proxy."""

    def __init__(self):
        super().__init__()
        self.proxy = 0.0

    def analyze(self, *args, **kwargs):
        report = super().analyze(*args, **kwargs)
        self.proxy += report.runtime_proxy
        return report


def build_state(scale: float, seed: int):
    """Synthesize and implement PULPino up to the opt stage's inputs."""
    lib = make_default_library()
    spec = pulpino_profile(scale)
    netlist = synthesize(spec, lib, effort=0.6, seed=seed)
    floorplan = make_floorplan(netlist, utilization=0.7)
    placement = QuadraticPlacer().place(netlist, floorplan, seed=seed + 1)
    clock_tree = ClockTreeSynthesizer(0.5).synthesize(netlist, placement, seed + 2)
    congestion = GlobalRouter().route(placement, seed=seed + 3).congestion_map()
    return netlist, placement, clock_tree.skews, congestion


def run_full_reanalysis(state, clock_period: float, seed: int):
    """The frozen optimizer, one full STA per pass; returns the result
    and the summed timing ``runtime_proxy``."""
    netlist, placement, skews, congestion = copy.deepcopy(state)
    engine = CountingGraphSTA()
    result = ref.ReferenceTimingOptimizer(**OPTIMIZER).optimize(
        netlist, placement, clock_period, engine, skews, congestion, seed,
    )
    return result, engine.proxy


def run_incremental(state, clock_period: float, seed: int):
    netlist, placement, skews, congestion = copy.deepcopy(state)
    return TimingOptimizer(**OPTIMIZER).optimize(
        netlist, placement, clock_period, GraphSTA(), skews, congestion, seed,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="PULPino profile scale factor")
    parser.add_argument("--clock", type=float, default=None,
                        help="clock period in ps (default: 90%% of the "
                             "unoptimized critical delay, so the optimizer "
                             "works the timing wall)")
    parser.add_argument("--seed", type=int, default=7, help="flow seed")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI run: scale 0.5, same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge results under 'incremental' in PATH")
    args = parser.parse_args(argv)

    scale = 0.5 if args.smoke else args.scale
    state = build_state(scale, args.seed)
    if args.clock is not None:
        clock = args.clock
    else:
        # probe the unoptimized critical delay and target 90% of it:
        # failing timing puts the optimizer in its fix-timing regime,
        # the access pattern incremental STA exists for (few touched
        # cells per pass, small dirty cones)
        netlist, placement, skews, congestion = state
        probe = GraphSTA().analyze(netlist, placement, 10_000.0, skews, congestion)
        critical = 10_000.0 - probe.worst_endpoint().slack
        clock = round(0.9 * critical)
    n_insts = len(state[0].instances)
    print(f"pulpino scale={scale} ({n_insts} instances), clock={clock:.0f} ps, "
          f"seed={args.seed}")

    full, work_full = run_full_reanalysis(state, clock, args.seed)
    incr = run_incremental(state, clock, args.seed)

    # --- QoR bit-identity -------------------------------------------------
    same_wns = full.final_report.wns == incr.final_report.wns
    same_slacks = all(
        full.final_report.endpoints[name].slack == ep.slack
        for name, ep in incr.final_report.endpoints.items()
    ) and list(full.final_report.endpoints) == list(incr.final_report.endpoints)
    same_decisions = (
        full.passes == incr.passes
        and full.upsizes == incr.upsizes
        and full.downsizes == incr.downsizes
        and full.vt_swaps == incr.vt_swaps
        and full.history == incr.history
    )
    same_power = (full.area_delta == incr.area_delta
                  and full.leakage_delta == incr.leakage_delta)
    print(f"final WNS: full={full.final_report.wns:.3f} "
          f"incr={incr.final_report.wns:.3f}")
    print(f"decisions: {full.passes} passes, {full.upsizes} upsizes, "
          f"{full.downsizes} downsizes, {full.vt_swaps} VT swaps")
    if not (same_wns and same_slacks and same_decisions and same_power):
        print("FAIL: incremental timing changed the optimizer's outcome")
        return 1
    print("final QoR bit-identical (WNS, endpoint slacks, decisions, "
          "area/leakage deltas)")

    # --- cost ------------------------------------------------------------
    work_incr = incr.sta_stats.proxy_executed
    ratio = work_full / work_incr if work_incr else float("inf")
    print(f"timing runtime_proxy: full={work_full:.0f} incr={work_incr:.0f} "
          f"-> {ratio:.2f}x less timing work")
    print(f"incremental kernel: {incr.sta_stats.full_propagates} full "
          f"propagations, {incr.sta_stats.incremental_updates} updates, "
          f"{incr.sta_stats.nodes_propagated} nodes re-propagated "
          f"(of {n_insts * incr.sta_stats.incremental_updates} "
          f"full-repropagation equivalent)")
    qor_identical = bool(same_wns and same_slacks and same_decisions
                         and same_power)
    if args.json:
        from vectorized_sta_benchmark import merge_json

        merge_json(args.json, "incremental", {
            "design": "pulpino",
            "scale": scale,
            "instances": n_insts,
            "proxy_full": work_full,
            "proxy_incremental": work_incr,
            "work_ratio": round(ratio, 2),
            "updates": incr.sta_stats.incremental_updates,
            "qor_identical": qor_identical,
        })
        print(f"wrote 'incremental' section to {args.json}")
    if incr.sta_stats.incremental_updates < 1:
        print("FAIL: the incremental path never exercised update()")
        return 1
    if ratio < 2.0:
        print("FAIL: expected >=2x less timing runtime_proxy with the "
              "incremental kernel")
        return 1
    print("OK: >=2x timing work saved at identical QoR")
    return 0


if __name__ == "__main__":
    sys.exit(main())
