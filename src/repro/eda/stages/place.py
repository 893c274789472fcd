"""Placement stage: quadratic seed placement plus annealing refinement."""

from __future__ import annotations

from typing import Sequence

from repro.eda.flow import FlowOptions, StepLog
from repro.eda.placement import AnnealingRefiner, QuadraticPlacer
from repro.eda.stages.base import FlowStage, PipelineState


class PlaceStage(FlowStage):
    name = "place"
    knobs = ("spread_strength", "placer_moves_per_cell")
    reads = ("netlist", "floorplan")
    n_seeds = 2  # one for the placer, one for the refiner

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        placement = QuadraticPlacer(options.spread_strength).place(
            state.netlist, state.floorplan, seeds[0]
        )
        refiner = AnnealingRefiner(moves_per_cell=options.placer_moves_per_cell)
        hpwl = refiner.refine(placement, seeds[1])
        state.placement = placement
        state.result.hpwl = hpwl
        state.result.logs.append(
            StepLog("place", {"hpwl": hpwl,
                              "density_max": float(placement.density_map().max())},
                    runtime_proxy=state.netlist.n_instances * options.placer_moves_per_cell)
        )
