"""Quickstart: run the simulated SP&R flow on a PULPino-class core.

Usage::

    python examples/quickstart.py [target_ghz]

Synthesizes the design, floorplans, places, builds a clock tree, routes
globally, optimizes timing, detail-routes and signs off — then prints
the per-step log and final QoR.
"""

import sys

from repro.bench import pulpino_profile
from repro.dse import default_flow_space
from repro.eda import FlowOptions, SPRFlow


def main() -> None:
    target_ghz = float(sys.argv[1]) if len(sys.argv) > 1 else 0.70

    spec = pulpino_profile()
    options = FlowOptions(target_clock_ghz=target_ghz, utilization=0.70)
    print(f"design: {spec.name} ({spec.n_gates} gates, {spec.n_flops} flops)")
    print(f"target: {target_ghz:.2f} GHz at utilization {options.utilization}")
    n_trajectories = default_flow_space().n_trajectories
    print(f"(the flow's option tree holds {n_trajectories:,} trajectories)\n")

    result = SPRFlow().run(spec, options, seed=42)

    print("step-by-step:")
    for log in result.logs:
        highlights = ", ".join(
            f"{k}={v:.1f}" for k, v in sorted(log.metrics.items())[:4]
        )
        print(f"  {log.step:<10} {highlights}")

    print("\nfinal QoR:")
    print(f"  area          {result.area:10.1f} um^2")
    print(f"  power         {result.power:10.1f} uW")
    print(f"  worst slack   {result.wns:10.1f} ps ({'MET' if result.timing_met else 'VIOLATED'})")
    print(f"  achieved      {result.achieved_ghz:10.3f} GHz")
    print(f"  DRVs          {result.final_drvs:10d} ({'clean' if result.routed else 'dirty'})")
    print(f"  verdict       {'SUCCESS' if result.success else 'FAILED'}")

    if not result.success:
        print("\nhint: try a lower target, e.g. "
              f"`python examples/quickstart.py {max(0.1, target_ghz - 0.1):.2f}`")


if __name__ == "__main__":
    main()
