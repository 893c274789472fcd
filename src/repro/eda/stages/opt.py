"""Timing-optimization stage: sizing/VT loop under the embedded timer.

Note the knob subset includes ``target_clock_ghz``: this is the first
stage where the clock target enters the pipeline, so a target-frequency
sweep at a fixed seed shares its whole synth..groute prefix.

The optimizer queries one incremental
:class:`~repro.eda.sta.graph.TimingGraph` (built over the topology the
CTS stage levelized) instead of re-running full STA per pass; the
kernel's work accounting flows into ``state.sta_stats`` for the
executor's ``sta.*`` metrics.  The StepLog stays byte-identical to the
historical full-reanalysis loop — incremental reports are bit-identical,
so every decision, count and WNS matches.
"""

from __future__ import annotations

from typing import Sequence

from repro.eda.flow import FlowOptions, StepLog
from repro.eda.opt import TimingOptimizer
from repro.eda.sta import GraphSTA, StaStats
from repro.eda.stages.base import FlowStage, PipelineState


class OptStage(FlowStage):
    name = "opt"
    knobs = ("target_clock_ghz", "opt_passes", "opt_cells_per_pass",
             "opt_guardband", "power_recovery")
    reads = ("netlist", "placement", "clock_tree", "congestion", "timing_topology")
    n_seeds = 1

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        optimizer = TimingOptimizer(
            max_passes=options.opt_passes,
            cells_per_pass=options.opt_cells_per_pass,
            guardband=options.opt_guardband,
            recover_power=options.power_recovery,
        )
        engine = GraphSTA()
        graph = engine.build_graph(
            state.netlist, state.placement,
            skews=state.clock_tree.skews, congestion=state.congestion,
            topology=state.timing_topology,
        )
        opt = optimizer.optimize(
            state.netlist, state.placement, options.clock_period_ps, engine,
            state.clock_tree.skews, state.congestion, seeds[0], graph=graph,
        )
        state.opt = opt
        state.timing_graph = graph
        if state.sta_stats is None:
            state.sta_stats = StaStats()
        state.sta_stats.add(graph.stats)
        state.result.logs.append(
            StepLog("opt", {"passes": opt.passes, "upsizes": opt.upsizes,
                            "downsizes": opt.downsizes, "vt_swaps": opt.vt_swaps,
                            "wns_graph": opt.final_report.wns},
                    series={"wns": opt.history},
                    runtime_proxy=opt.total_ops * 8.0 + opt.passes * 50.0)
        )
