"""Synthesis stage: design spec -> mapped netlist."""

from __future__ import annotations

from typing import Sequence

from repro.eda.flow import FlowOptions, StepLog, _default_library
from repro.eda.stages.base import FlowStage, PipelineState
from repro.eda.synthesis import synthesize


class SynthStage(FlowStage):
    name = "synth"
    knobs = ("synth_effort",)
    reads = ("spec",)
    n_seeds = 1

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        netlist = synthesize(state.spec, _default_library(), options.synth_effort, seeds[0])
        state.netlist = netlist
        state.result.logs.append(
            StepLog(
                "synth", dict(netlist.stats(), effort=options.synth_effort),
                runtime_proxy=netlist.n_instances * (1 + 2 * options.synth_effort),
            )
        )
