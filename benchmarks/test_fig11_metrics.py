"""Figure 11 / Sec 4: the METRICS system, end to end.

Paper validation: "Multiple runs were launched with different designs
and different option settings ... mining and sensitivity analyses with
respect to final design QOR enabled prediction of best design-specific
tool option settings.  METRICS was also used to prescribe achievable
clock frequency for given designs."  Plus the METRICS-2.0 upgrade: the
miner's guidance is fed back and applied mid-campaign without a human.
"""

from conftest import print_header

from repro.bench import pulpino_profile
from repro.core.parallel import FlowExecutor
from repro.dse import DSEEngine
from repro.eda.flow import FlowOptions, FlowResult
from repro.metrics import DataMiner, MetricsCollector, MetricsServer

N_SEED = 10


def _best_area(runs):
    return min((r.area for r in runs if isinstance(r, FlowResult) and r.success),
               default=float("inf"))


def test_fig11_metrics_system(benchmark):
    spec = pulpino_profile(scale=0.5)
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None,
                          collector=collector) as executor:
            engine = DSEEngine(
                strategy="miner", objective="area", executor=executor,
                params={"n_seed": N_SEED, "n_adaptive": 5,
                        "base_options": FlowOptions(target_clock_ghz=0.7)},
            )
            campaign = benchmark.pedantic(
                engine.run, args=(spec,), kwargs={"seed": 13},
                rounds=1, iterations=1,
            )
    best = campaign.best_result

    print_header("Figure 11 / Sec 4: METRICS collection, mining, feedback")
    print(f"records collected: {len(server)} over {len(server.runs())} runs")

    miner = DataMiner(server, seed=0)
    sens = miner.sensitivity("flow.area", design=spec.name)
    print("\noption sensitivity to final area (|corr|):")
    for option, value in sens.items():
        print(f"  {option:<24} {value:.2f}")

    rec = miner.recommend_options("area", design=spec.name)
    print(f"\nrecommended settings (model R^2 {rec.model_r2:.2f}):")
    for option, value in rec.options.items():
        print(f"  {option:<24} {value:.3f}")
    print(f"predicted area: {rec.predicted_objective:.1f} um^2")

    stats_runs = server.query(design=spec.name, metric="synth.instances")
    features = {
        "synth.instances": stats_runs[0].value,
        "synth.depth": server.query(design=spec.name, metric="synth.depth")[0].value,
        "synth.area": server.query(design=spec.name, metric="synth.area")[0].value,
    }
    freq = miner.prescribe_frequency(features)
    print(f"\nprescribed achievable frequency for this design: {freq:.3f} GHz")

    seed_best = _best_area(campaign.records[:N_SEED])
    adaptive_best = _best_area(campaign.records[N_SEED:])
    ratio = adaptive_best / seed_best
    print(f"\nbest successful area: seed phase {seed_best:.1f} -> "
          f"adaptive phase {adaptive_best:.1f} "
          f"(improvement ratio {ratio:.3f})")

    # shape targets
    assert len(server) > 300  # rich collection
    assert sens  # sensitivity analysis produced a ranking
    assert 0.2 < freq < 3.0  # a sane prescription
    assert best.area > 0
    assert ratio <= 1.1  # feedback does not hurt, usually helps
