"""The capstone: a no-human-in-the-loop implementation campaign.

The paper opens with DARPA IDEA's goal — "a 'no human in the loop',
24-hour design framework for RTL-to-GDSII layout implementation".
This example chains every subsystem of the reproduction into exactly
that loop for one design:

1. **veto** hopeless setups before placement (doomed-floorplan model);
2. **search** the target-frequency space with a Thompson bandit under
   tool-license limits;
3. **guard** every detailed-route run with the MDP strategy card so
   doomed runs release their licenses early;
4. **repair** failures with the robot engineers' escalation ladders;
5. **record** everything in METRICS and let the miner pick the final
   option settings;
6. sign off with multi-corner analysis and fix hold.

No step asks a human anything.

Usage::

    python examples/no_human_in_the_loop.py
"""

import numpy as np

from repro.bench import RouterLogCorpus, pulpino_profile
from repro.bench.generators import artificial_profile
from repro.core.bandit import FlowArmEnvironment, ThompsonSampling
from repro.core.doomed import MDPCardLearner, make_stop_callback
from repro.core.orchestration import TimingClosureRobot
from repro.core.prediction import FloorplanDoomPredictor
from repro.dse import DSEEngine
from repro.eda import FlowOptions
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.mmmc import MMMCAnalyzer
from repro.eda.opt import TimingOptimizer
from repro.eda.placement import QuadraticPlacer
from repro.eda.synthesis import synthesize
from repro.eda.sta import GraphSTA
from repro.metrics import DataMiner, InstrumentedFlow, MetricsServer


def main() -> None:
    spec = pulpino_profile()
    server = MetricsServer()
    print(f"=== no-human-in-the-loop campaign: {spec.name} ===\n")

    # 1. train the guards once (in production these come from the archive)
    print("[1] training guards (doom predictors) from archived runs...")
    card = MDPCardLearner().fit(RouterLogCorpus.artificial(n=400, seed=1))
    guard = make_stop_callback(card, consecutive=2)
    veto = FloorplanDoomPredictor(threshold=0.35, seed=0)
    veto.fit([artificial_profile(i) for i in range(3)], n_runs=30, seed=2)

    # 2. veto hopeless setups before spending any P&R time
    print("[2] screening candidate setups...")
    candidates = [
        FlowOptions(utilization=u, router_tracks_per_um=t)
        for u in (0.6, 0.75, 0.9)
        for t in (10.0, 16.0)
    ]
    viable = []
    for options in candidates:
        p = veto.success_probability(spec, options)
        keep = p >= veto.threshold
        print(f"    util={options.utilization:.2f} tracks={options.router_tracks_per_um:>4.0f}: "
              f"P(routes)={p:.2f} -> {'keep' if keep else 'VETO'}")
        if keep:
            viable.append(options)
    base = viable[0]

    # 3. bandit search over target frequencies, guarded routing
    print("\n[3] Thompson-sampling the target frequency (3 licenses x 10 rounds)...")
    env = FlowArmEnvironment(
        spec, [0.5, 0.6, 0.7, 0.78, 0.86], base_options=base, seed=3
    )
    policy = ThompsonSampling(env.n_arms, seed=4)
    result = DSEEngine(
        strategy="bandit", kill_policy=guard,  # guarded tool runs
        params={"n_iterations": 10, "n_concurrent": 3},
    ).run((policy, env))
    # exploit: the fastest arm the campaign showed to be reliably feasible
    pulls = np.bincount([r.arm for r in result.records], minlength=env.n_arms)
    wins = np.zeros(env.n_arms)
    for rec in result.records:
        wins[rec.arm] += rec.success
    reliable = [
        i for i in range(env.n_arms)
        if pulls[i] >= 2 and wins[i] / pulls[i] >= 0.8
    ]
    target = env.frequencies[max(reliable)] if reliable else env.frequencies[0]
    for i, freq in enumerate(env.frequencies):
        rate = wins[i] / pulls[i] if pulls[i] else float("nan")
        print(f"    {freq:.2f} GHz: {int(pulls[i])} runs, success {rate:.0%}"
              if pulls[i] else f"    {freq:.2f} GHz: unexplored")
    print(f"    {result.n_runs - result.n_failed}/{result.n_runs} runs met constraints; "
          f"chosen target: {target:.2f} GHz")

    # 4. robot closes timing if the chosen point is marginal
    print("\n[4] timing-closure robot verifies the chosen point...")
    robot = TimingClosureRobot(max_attempts=5, frequency_step=0.04)
    report = robot.run(spec, base.with_(target_clock_ghz=target), seed=5)
    final_options = report.final_result.options
    print(f"    {'closed' if report.solved else 'OPEN'} at "
          f"{final_options.target_clock_ghz:.2f} GHz after {report.attempts} attempt(s)"
          + (f" (actions: {', '.join(report.actions)})" if report.actions else ""))

    # 5. record the final implementation in METRICS, mine a sanity check
    print("\n[5] final implementation, recorded in METRICS...")
    flow = InstrumentedFlow(server)
    for seed in range(8):
        flow.run(spec, final_options, seed=100 + seed)
    miner = DataMiner(server, seed=0)
    anomalies = miner.flag_anomalies("flow.area", z_threshold=3.0)
    print(f"    {len(server)} records over {len(server.runs())} runs; "
          f"{len(anomalies)} anomalous run(s)")

    # 6. multi-corner signoff + hold fix on the final netlist
    print("\n[6] multi-corner signoff...")
    library = make_default_library()
    netlist = synthesize(spec, library, final_options.synth_effort, seed=100)
    floorplan = make_floorplan(netlist, final_options.utilization)
    placement = QuadraticPlacer().place(netlist, floorplan, seed=100)
    period = final_options.clock_period_ps
    TimingOptimizer(max_passes=6).optimize(netlist, placement, period, GraphSTA(), seed=100)
    mmmc = MMMCAnalyzer().analyze(netlist, placement, period)
    print(f"    setup WNS {mmmc.setup_wns:.1f} ps (worst view: {mmmc.worst_setup_view}); "
          f"hold WNS {mmmc.hold_wns:.1f} ps")
    if mmmc.hold_wns < 0:
        n = TimingOptimizer().fix_hold(netlist, placement, period, GraphSTA())
        print(f"    inserted {n} hold buffers")
        mmmc = MMMCAnalyzer().analyze(netlist, placement, period)
    print(f"\n=== campaign done: {'CLEAN' if mmmc.clean else 'needs another lap'} "
          f"at {final_options.target_clock_ghz:.2f} GHz, no human consulted ===")


if __name__ == "__main__":
    main()
