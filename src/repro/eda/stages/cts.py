"""Clock-tree synthesis stage: placement -> buffered clock tree."""

from __future__ import annotations

from typing import Sequence

from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.flow import FlowOptions, StepLog
from repro.eda.sta import TimingTopology
from repro.eda.stages.base import FlowStage, PipelineState


class CtsStage(FlowStage):
    name = "cts"
    knobs = ("cts_effort",)
    reads = ("netlist", "placement")
    n_seeds = 1

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        cts = ClockTreeSynthesizer(options.cts_effort).synthesize(
            state.netlist, state.placement, seeds[0]
        )
        state.clock_tree = cts
        # timing structure is now final up to cell swaps: levelize once
        # here and let every downstream timing query (opt's incremental
        # kernel, signoff's full propagation) share the topology
        state.timing_topology = TimingTopology(state.netlist, state.placement)
        state.result.logs.append(
            StepLog("cts", {"skew": cts.global_skew, "buffers": cts.n_buffers,
                            "buffer_area": cts.buffer_area},
                    runtime_proxy=cts.n_buffers * 4.0)
        )
