"""The pipeline driver: plan seeds, resume from the deepest prefix, run.

:func:`execute_pipeline` is the staged replacement for the monolithic
``SPRFlow.run``/``implement`` bodies and is bit-identical to them: the
step-seed stream is drawn in the exact historical order (synthesis and
implementation seeds first, then placer, refiner, CTS, global route,
opt, detailed route), every stage logs the same
:class:`~repro.eda.flow.StepLog` in the same place, and the returned
:class:`~repro.eda.flow.FlowResult` matches field for field.

Because :func:`plan_stages` derives *all* step seeds up front, prefix
cache keys can be computed without running anything — so a job can
probe the stage cache deepest-first and re-run only the suffix after
its deepest cached prefix.  The plan depends on nothing but the entry
kind and the seed, so it is memoized: the points of a fixed-seed sweep
draw it once.  A snapshot keeps only the state fields some later stage
``reads``; after signoff that is the congestion map alone, so a
router-knob resume unpickles a few kilobytes, and the router then
resumes the trajectory cached for that map (see
:mod:`repro.eda.stages.droute`), running only the iterations past its
end.
"""

from __future__ import annotations

import functools
import pickle
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.eda.flow import FlowOptions, FlowResult
from repro.eda.netlist import Netlist
from repro.eda.stages.base import FlowStage, PipelineState
from repro.eda.stages.cache import StageCache, stage_prefix_keys
from repro.eda.stages.cts import CtsStage
from repro.eda.stages.droute import (
    DROUTE_ITERATION_PROXY,
    DrouteSignoffStage,
    SignoffStage,
)
from repro.eda.stages.floorplan import FloorplanStage
from repro.eda.stages.groute import GrouteStage
from repro.eda.stages.opt import OptStage
from repro.eda.stages.place import PlaceStage
from repro.eda.stages.synth import SynthStage
from repro.eda.synthesis import DesignSpec

Design = Union[DesignSpec, Netlist]

#: physical implementation of an existing netlist (the ``implement`` entry)
IMPLEMENT_STAGES: Tuple[FlowStage, ...] = (
    FloorplanStage(),
    PlaceStage(),
    CtsStage(),
    GrouteStage(),
    OptStage(),
    SignoffStage(),
    DrouteSignoffStage(),
)

#: the full flow from a design spec (the ``run`` entry)
FULL_FLOW_STAGES: Tuple[FlowStage, ...] = (SynthStage(),) + IMPLEMENT_STAGES


def _implement_seed_plan(draw: Callable[[], int]) -> Tuple[Tuple[int, ...], ...]:
    """Per-stage seed tuples for IMPLEMENT_STAGES, drawn in the
    monolith's order (left-to-right evaluation): placer, refiner, CTS,
    global route, opt, detailed route."""
    return (
        (),                 # floorplan draws nothing
        (draw(), draw()),   # place: placer + refiner
        (draw(),),          # cts
        (draw(),),          # groute
        (draw(),),          # opt
        (),                 # signoff draws nothing
        (draw(),),          # droute_signoff
    )


def plan_stages(design: Design, seed: int):
    """``(entry_kind, stages, per-stage seed tuples)`` for one job.

    Reproduces the monolithic rng exactly: a full-flow run draws a
    synthesis seed then an implementation seed from ``rng(seed)``, and
    the implementation seeds come from ``rng(implementation_seed)``; an
    implement-only run draws them from ``rng(seed)`` directly.

    The plan depends only on the entry kind and the seed, so it is
    drawn once per pair and kept in a bounded LRU: every point of a
    fixed-seed sweep shares one plan.  ``seed`` must be an integer (a
    numpy integer plans like the equal ``int``); ``None`` would seed
    from OS entropy, so it is rejected like a bool or a float.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return _draw_plan("netlist" if isinstance(design, Netlist) else "spec", int(seed))


# a campaign cycles through far fewer seeds than this, and one plan is
# a few dozen small ints
@functools.lru_cache(maxsize=256)
def _draw_plan(kind: str, seed: int):
    """:func:`plan_stages`'s draw for one ``(kind, seed)``; the plan is
    all tuples, so callers can share it."""
    rng = np.random.default_rng(seed)
    draw = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
    if kind == "netlist":
        return "netlist", IMPLEMENT_STAGES, _implement_seed_plan(draw)
    synth_seed = draw()
    impl_rng = np.random.default_rng(draw())
    impl_draw = lambda: int(impl_rng.integers(0, 2**31 - 1))  # noqa: E731
    stage_seeds = ((synth_seed,),) + _implement_seed_plan(impl_draw)
    return "spec", FULL_FLOW_STAGES, stage_seeds


@dataclass
class StageReport:
    """Per-job stage accounting, returned alongside the result.

    Travels with the job across the process boundary (plain picklable
    dataclass) so the coordinator can aggregate saved work without
    seeing the workers' caches.
    """

    hit_stages: List[str] = field(default_factory=list)
    run_stages: List[str] = field(default_factory=list)
    #: runtime proxy of the StepLogs this job produced (the suffix's),
    #: less the router iterations it resumed; a cold run's equals
    #: ``result.runtime_proxy`` exactly
    executed_proxy: float = 0.0
    #: detailed-router iterations answered from a cached trajectory
    #: (in the ``droute`` log, but not run by this job)
    resumed_iterations: int = 0
    #: timing-kernel accounting for the executed suffix (see
    #: repro.eda.sta.graph.StaStats): full propagations, incremental
    #: updates, nodes re-propagated, and the proxy the incremental
    #: path avoided versus full re-analysis per query
    sta_full: int = 0
    sta_incremental: int = 0
    sta_nodes: int = 0
    sta_proxy_saved: float = 0.0

    @property
    def n_hits(self) -> int:
        return len(self.hit_stages)

    @property
    def n_misses(self) -> int:
        return len(self.run_stages)


@dataclass
class StagedJobOutcome:
    """What :func:`~repro.core.parallel.executor.run_flow_job` returns:
    result + accounting."""

    result: FlowResult
    report: StageReport


def _snapshot(state: PipelineState, later: Sequence[FlowStage]) -> PipelineState:
    """``state`` cut to what a job resuming after it needs: ``result``
    and every field some ``later`` stage reads.  The fields stay shared
    with ``state``; the cache's one pickle of the snapshot copies them
    with their aliasing intact."""
    live = {name for stage in later for name in stage.reads}
    return PipelineState(result=state.result,
                         **{name: getattr(state, name) for name in sorted(live)})


def execute_pipeline(
    design: Design,
    options: FlowOptions,
    seed: int = 0,
    stop_callback=None,
    cache: Optional[StageCache] = None,
    report: Optional[StageReport] = None,
) -> FlowResult:
    """Run the staged pipeline for one job; bit-identical to the monolith.

    With a ``cache``, the job resumes from its deepest cached prefix
    snapshot and re-runs only the suffix; every executed cacheable
    stage's post-state is snapshotted for later jobs, keeping only
    ``result`` and the fields a later stage reads, and the detailed
    router resumes the trajectory cached for its inputs.  A ``Netlist``
    design is copied, never modified.
    """
    plan = plan_stages(design, seed)
    kind, stages, stage_seeds = plan
    keys = stage_prefix_keys(design, options, seed, plan) if cache is not None else None

    state: Optional[PipelineState] = None
    start = 0
    if cache is not None:
        for i in range(len(stages) - 1, -1, -1):
            if not stages[i].cacheable:
                continue
            cached = cache.get(keys[i], stages[i].name)
            if cached is not None:
                state = cached
                # the snapshot carries the *creating* job's identity
                # fields; the artifacts only depend on the matching
                # knob prefix, so rebadge them for this job
                state.result.design = design.name
                state.result.options = options
                state.result.seed = seed
                start = i + 1
                break

    if state is None:
        result = FlowResult(design=design.name, options=options, seed=seed)
        state = PipelineState(result=result)
        if kind == "netlist":
            # stages mutate the netlist in place (the optimizer resizes
            # cells), so implement a private copy and leave the
            # caller's untouched; one pickle round trip, as for a
            # stage-cache snapshot
            state.netlist = pickle.loads(
                pickle.dumps(design, protocol=pickle.HIGHEST_PROTOCOL))
        else:
            state.spec = design

    if report is None:
        report = StageReport()
    report.hit_stages.extend(stage.name for stage in stages[:start])
    # the resumed prefix's logs are work done elsewhere; stages may
    # insert their log ahead of an inherited one
    inherited = {id(log) for log in state.result.logs}

    for i in range(start, len(stages)):
        stage = stages[i]
        stage.run(state, options, stage_seeds[i], stop_callback=stop_callback,
                  cache=cache)
        report.run_stages.append(stage.name)
        if cache is not None and stage.cacheable:
            cache.put(keys[i], stage.name, _snapshot(state, stages[i + 1:]))

    resumed = state.droute_resumed or 0
    report.resumed_iterations += resumed
    produced = sum(log.runtime_proxy for log in state.result.logs
                   if id(log) not in inherited)
    report.executed_proxy += produced - resumed * DROUTE_ITERATION_PROXY
    if state.sta_stats is not None:
        report.sta_full += state.sta_stats.full_propagates
        report.sta_incremental += state.sta_stats.incremental_updates
        report.sta_nodes += state.sta_stats.nodes_propagated
        report.sta_proxy_saved += state.sta_stats.proxy_saved

    state.result.runtime_proxy = sum(log.runtime_proxy for log in state.result.logs)
    return state.result

