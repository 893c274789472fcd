"""Parallel flow execution with deduplicating result caching.

The campaign layers (trajectory exploration, batched bandits,
multistart, characterization sweeps) all submit through one
:class:`FlowExecutor`, so the paper's "N concurrent tool licenses"
is real process-level parallelism instead of a loop variable.
Caching is two-level: the whole-run :class:`ResultCache` replays exact
``(design, options, seed)`` repeats, and the stage-prefix
:class:`StageCache` (``stage_cache=True``) resumes jobs from their
deepest cached pipeline prefix so only the changed suffix re-runs, and
the detailed router from the longest trajectory cached for its inputs.
See ``docs/parallel.md``.
"""

from repro.core.parallel.cache import (
    CACHE_SCHEMA,
    ResultCache,
    StageCache,
    cache_key,
    configure_stage_cache,
    design_fingerprint,
    flow_result_from_dict,
    flow_result_to_dict,
    get_stage_cache,
    stage_prefix_keys,
)
from repro.core.parallel.executor import (
    ExecutorStats,
    FlowExecutionError,
    FlowExecutor,
    FlowJob,
    run_flow_job,
)
from repro.eda.stages.runner import StagedJobOutcome, StageReport

__all__ = [
    "CACHE_SCHEMA",
    "ExecutorStats",
    "FlowExecutionError",
    "FlowExecutor",
    "FlowJob",
    "ResultCache",
    "StageCache",
    "StageReport",
    "StagedJobOutcome",
    "cache_key",
    "configure_stage_cache",
    "design_fingerprint",
    "flow_result_from_dict",
    "flow_result_to_dict",
    "get_stage_cache",
    "run_flow_job",
    "stage_prefix_keys",
]
