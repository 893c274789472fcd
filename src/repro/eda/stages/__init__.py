"""The staged SP&R pipeline: one composable tool per flow stage.

Open-source flows (iEDA, OpenROAD) are built as per-stage tools with
explicit intermediate artifacts so stages can be re-entered
independently; this package gives the simulated substrate the same
shape.  Each :class:`~repro.eda.stages.base.FlowStage` consumes and
produces fields of a :class:`~repro.eda.stages.base.PipelineState`
(netlist, floorplan, placement, clock tree, congestion, ...) and
declares exactly which :class:`~repro.eda.flow.FlowOptions` knobs it
reads — which is what makes per-stage prefix cache keys possible
(:mod:`repro.eda.stages.cache`) — and which state fields it reads, so
a cached snapshot keeps only what the stages after it need.

The stages run synth, floorplan, place, cts, groute, opt, signoff and
detailed routing (the terminal ``droute_signoff``).  Signoff reads
nothing routing produces, so it runs ahead of the router and is cached
with the prefix: a router-knob sweep point re-runs detailed routing
alone, and that resumes the router trajectory an earlier point left.

:func:`~repro.eda.stages.runner.execute_pipeline` drives the stages in
order and is bit-identical to the historical monolithic
``SPRFlow.implement``: same step-seed draw order, same step logs in the
same order, same ``FlowResult``.
"""

from repro.eda.stages.base import FlowStage, PipelineState
from repro.eda.stages.cache import (
    StageCache,
    configure_stage_cache,
    get_stage_cache,
    stage_prefix_keys,
)
from repro.eda.stages.runner import (
    FULL_FLOW_STAGES,
    IMPLEMENT_STAGES,
    StagedJobOutcome,
    StageReport,
    execute_pipeline,
    plan_stages,
)

__all__ = [
    "FULL_FLOW_STAGES",
    "IMPLEMENT_STAGES",
    "FlowStage",
    "PipelineState",
    "StageCache",
    "StageReport",
    "StagedJobOutcome",
    "configure_stage_cache",
    "execute_pipeline",
    "get_stage_cache",
    "plan_stages",
    "stage_prefix_keys",
]
