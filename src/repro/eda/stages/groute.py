"""Global-routing stage: placement -> congestion map."""

from __future__ import annotations

from typing import Sequence

from repro.eda.flow import FlowOptions, StepLog
from repro.eda.routing import GlobalRouter
from repro.eda.stages.base import FlowStage, PipelineState


class GrouteStage(FlowStage):
    name = "groute"
    knobs = ("router_tracks_per_um",)
    reads = ("placement",)
    n_seeds = 1

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        groute = GlobalRouter(tracks_per_um=options.router_tracks_per_um).route(
            state.placement, seeds[0]
        )
        state.groute = groute
        state.congestion = groute.congestion_map()
        state.result.logs.append(
            StepLog("groute", {"overflow": groute.overflow,
                               "max_congestion": groute.max_congestion,
                               "wirelength": groute.wirelength},
                    runtime_proxy=groute.wirelength * 0.2)
        )
