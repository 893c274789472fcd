"""METRICS 2.0: measure, mine, and adapt with no human (Sec 4, Fig 11).

Every flow run reports ~30 vocabulary metrics into the METRICS server;
after a seed phase the data miner recommends option settings, and the
``miner`` DSE strategy applies them automatically — the paper's "adapt
tool/flow parameters midstream without human intervention".

Usage::

    python examples/metrics_campaign.py
"""

from repro.bench import pulpino_profile
from repro.core.parallel import FlowExecutor
from repro.dse import DSEEngine
from repro.eda import FlowOptions, FlowResult
from repro.metrics import DataMiner, MetricsCollector, MetricsServer

N_SEED = 10


def _best_area(runs) -> float:
    return min((r.area for r in runs if isinstance(r, FlowResult) and r.success),
               default=float("inf"))


def main() -> None:
    spec = pulpino_profile(scale=0.5)

    print(f"campaign on {spec.name}: 10 exploratory + 6 miner-guided runs")
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            campaign = DSEEngine(
                strategy="miner", objective="area", executor=executor,
                params={"n_seed": N_SEED, "n_adaptive": 6,
                        "base_options": FlowOptions(target_clock_ghz=0.7)},
            ).run(spec, seed=3)
    best = campaign.best_result

    print(f"\ncollected {len(server)} metric records over {len(server.runs())} runs")

    miner = DataMiner(server, seed=0)
    print("\noption sensitivity to final area:")
    for option, value in miner.sensitivity("flow.area", design=spec.name).items():
        bar = "#" * int(40 * value)
        print(f"  {option:<24} {value:4.2f} {bar}")

    print("\nrun history (area um^2, S = success; runs 11+ are miner-guided):")
    for i, run in enumerate(campaign.records):
        phase = "seed " if i < N_SEED else "mined"
        if not isinstance(run, FlowResult):
            print(f"  {i + 1:>2} [{phase}] failed: {run}")
            continue
        print(f"  {i + 1:>2} [{phase}] area={run.area:7.1f} "
              f"target={run.options.target_clock_ghz:.2f}GHz "
              f"util={run.options.utilization:.2f} "
              f"{'S' if run.success else '-'}")

    ratio = _best_area(campaign.records[N_SEED:]) / _best_area(campaign.records[:N_SEED])
    print(f"\nbest result: area {best.area:.1f} um^2 at "
          f"{best.options.target_clock_ghz:.2f} GHz "
          f"(improvement ratio vs seed phase: {ratio:.3f})")


if __name__ == "__main__":
    main()
