"""Floorplan stage: netlist -> core outline and row geometry."""

from __future__ import annotations

from typing import Sequence

from repro.eda.flow import FlowOptions, StepLog
from repro.eda.floorplan import make_floorplan
from repro.eda.stages.base import FlowStage, PipelineState


class FloorplanStage(FlowStage):
    name = "floorplan"
    knobs = ("utilization", "aspect_ratio")
    reads = ("netlist",)
    n_seeds = 0  # floorplanning is deterministic given the netlist

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        floorplan = make_floorplan(state.netlist, options.utilization, options.aspect_ratio)
        state.floorplan = floorplan
        state.result.logs.append(
            StepLog("floorplan",
                    {"width": floorplan.width, "height": floorplan.height,
                     "utilization": options.utilization},
                    runtime_proxy=10.0)
        )
