"""The staged pipeline: equivalence with the monolith, prefix keys,
and the stage cache.

The tentpole contract is *bit-identity*: decomposing ``SPRFlow`` into
stages must not change a single field of any ``FlowResult`` — fresh or
resumed from a cached prefix — so every test here compares against
:class:`tests.eda.monolith_reference.MonolithicSPRFlow`, a frozen
verbatim copy of the pre-refactor flow body.
"""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.stages import (
    FULL_FLOW_STAGES,
    IMPLEMENT_STAGES,
    PipelineState,
    StageCache,
    StageReport,
    execute_pipeline,
    plan_stages,
    stage_prefix_keys,
)

from tests.eda.monolith_reference import MonolithicSPRFlow


OPTION_POINTS = [
    FlowOptions(),
    FlowOptions(target_clock_ghz=0.5, synth_effort=0.8, utilization=0.6),
    FlowOptions(router_effort=0.9, router_max_iterations=30, opt_passes=3,
                power_recovery=False),
]


# --------------------------------------------------- fresh equivalence
@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("options", OPTION_POINTS)
def test_staged_run_matches_monolith(small_spec, options, seed):
    staged = SPRFlow().run(small_spec, options, seed=seed)
    golden = MonolithicSPRFlow().run(small_spec, options, seed=seed)
    assert staged == golden  # every QoR field, every StepLog, runtime_proxy
    assert staged.log_text() == golden.log_text()


@pytest.mark.parametrize("seed", [0, 11])
def test_staged_implement_matches_monolith(small_netlist, seed):
    options = FlowOptions(target_clock_ghz=0.5)
    # the staged flow implements a private copy; the frozen monolith
    # still mutates its input in place, so it gets its own
    staged = SPRFlow().implement(small_netlist, options, seed=seed)
    golden = MonolithicSPRFlow().implement(
        copy.deepcopy(small_netlist), options, seed=seed)
    assert staged == golden


def test_netlist_job_leaves_its_input_untouched(library, small_spec):
    """A Netlist job implements a private copy of its input: the caller's
    netlist keeps its fingerprint, so a repeat run repeats the result and
    two jobs sharing one netlist agree at any worker count."""
    from repro.core.parallel import FlowExecutor, FlowJob
    from repro.core.parallel.cache import design_fingerprint
    from repro.eda.synthesis import synthesize

    netlist = synthesize(small_spec, library, effort=0.5, seed=7)
    fingerprint = design_fingerprint(netlist)
    options = FlowOptions(target_clock_ghz=1.2)
    first = SPRFlow().implement(netlist, options, seed=3)
    assert design_fingerprint(netlist) == fingerprint
    assert SPRFlow().implement(netlist, options, seed=3) == first

    jobs = [FlowJob(netlist, options, seed) for seed in (3, 4)]
    serial = FlowExecutor(n_workers=1, cache=None).run_jobs(jobs)
    with FlowExecutor(n_workers=2, cache=None) as pool:
        parallel = pool.run_jobs(jobs)
    assert serial == parallel
    assert serial[0] == first
    assert design_fingerprint(netlist) == fingerprint


def test_stage_structure():
    assert [s.name for s in FULL_FLOW_STAGES] == [
        "synth", "floorplan", "place", "cts", "groute", "opt", "signoff",
        "droute_signoff",
    ]
    assert FULL_FLOW_STAGES[1:] == IMPLEMENT_STAGES
    assert all(s.cacheable for s in FULL_FLOW_STAGES[:-1])
    assert not FULL_FLOW_STAGES[-1].cacheable  # detailed routing is terminal
    # every declared knob is a real FlowOptions field, and every stage
    # can extract its subset
    fields = set(FlowOptions().to_dict())
    for stage in FULL_FLOW_STAGES:
        assert set(stage.knobs) <= fields
        assert set(stage.knob_values(FlowOptions())) == set(stage.knobs)


def test_plan_stages_entry_kinds(small_spec, small_netlist):
    kind, stages, seeds = plan_stages(small_spec, 3)
    assert kind == "spec" and stages == FULL_FLOW_STAGES
    assert [len(s) for s in seeds] == [1, 0, 2, 1, 1, 1, 0, 1]
    kind, stages, seeds = plan_stages(small_netlist, 3)
    assert kind == "netlist" and stages == IMPLEMENT_STAGES
    assert [len(s) for s in seeds] == [0, 2, 1, 1, 1, 0, 1]


@pytest.mark.parametrize("seed", [None, True, False, 3.0, 2.5, "3"])
def test_plan_stages_rejects_a_seed_that_is_not_an_integer(small_spec, seed):
    """``None`` would seed from OS entropy, and a memoized plan would
    freeze whichever entropy it drew first."""
    with pytest.raises(ValueError, match="seed"):
        plan_stages(small_spec, seed)
    with pytest.raises(ValueError, match="seed"):
        SPRFlow().run(small_spec, FlowOptions(), seed)


@pytest.mark.parametrize("seed", [np.int64(3), np.int32(3), np.uint8(3)])
def test_numpy_integer_seeds_plan_like_ints(small_spec, small_netlist, seed):
    for design in (small_spec, small_netlist):
        assert plan_stages(design, seed) == plan_stages(design, 3)
    assert SPRFlow().run(small_spec, FlowOptions(), seed) == \
        SPRFlow().run(small_spec, FlowOptions(), 3)


def test_memoized_plans_equal_fresh_draws(small_spec, small_netlist):
    """Both entry kinds share the memo under distinct keys; every plan
    it serves, on the first call and on repeats, is the one drawn
    fresh."""
    from repro.eda.stages.runner import _draw_plan

    for seed in (0, 1, 3, 7, 2**31 - 2, 2**40):
        for _ in range(2):
            for kind, design in (("spec", small_spec), ("netlist", small_netlist)):
                assert plan_stages(design, seed) == _draw_plan.__wrapped__(kind, seed)


def run_stages_through(design, options, seed, last):
    """The full pipeline state of a cold run, just after stage ``last``."""
    _, stages, stage_seeds = plan_stages(design, seed)
    state = PipelineState(
        result=FlowResult(design=design.name, options=options, seed=seed),
        spec=design)
    for stage, seeds in zip(stages, stage_seeds):
        stage.run(state, options, seeds)
        if stage.name == last:
            return state
    raise ValueError(f"no stage named {last!r}")


# ------------------------------------------------------- prefix keys
def keys_by_stage(design, options, seed):
    """Map stage name -> prefix key (keys are positional per stage)."""
    _, stages, _ = plan_stages(design, seed)
    return dict(zip((s.name for s in stages),
                    stage_prefix_keys(design, options, seed)))


def test_prefix_keys_stable_and_seed_sensitive(small_spec):
    base = stage_prefix_keys(small_spec, FlowOptions(), 3)
    assert base == stage_prefix_keys(small_spec, FlowOptions(), 3)
    assert len(base) == len(FULL_FLOW_STAGES)
    assert len(set(base)) == len(base)
    other = stage_prefix_keys(small_spec, FlowOptions(), 4)
    # a new seed changes every stage's derived step seeds -> every key
    assert all(k1 != k2 for k1, k2 in zip(base, other))


def test_prefix_keys_downstream_knob_preserves_prefix(small_spec):
    base = keys_by_stage(small_spec, FlowOptions(), 3)
    routed = keys_by_stage(
        small_spec, FlowOptions(router_effort=0.9, router_max_iterations=30), 3)
    # router knobs first enter at droute_signoff: the whole cacheable
    # prefix is shared
    for stage in ("synth", "floorplan", "place", "cts", "groute", "opt"):
        assert base[stage] == routed[stage]
    assert base["droute_signoff"] != routed["droute_signoff"]


def test_prefix_keys_upstream_knob_invalidates_suffix(small_spec):
    base = keys_by_stage(small_spec, FlowOptions(), 3)
    fat = keys_by_stage(small_spec, FlowOptions(utilization=0.6), 3)
    assert base["synth"] == fat["synth"]  # synthesis doesn't see utilization
    for stage in ("floorplan", "place", "cts", "groute", "opt", "droute_signoff"):
        assert base[stage] != fat[stage]


def test_prefix_keys_target_enters_at_opt(small_spec):
    base = keys_by_stage(small_spec, FlowOptions(), 3)
    slow = keys_by_stage(small_spec, FlowOptions(target_clock_ghz=0.4), 3)
    for stage in ("synth", "floorplan", "place", "cts", "groute"):
        assert base[stage] == slow[stage]
    assert base["opt"] != slow["opt"]


# -------------------------------------------------- prefix-resume runs
def test_resume_from_cached_prefix_is_bit_identical(small_spec):
    cache = StageCache()
    base = FlowOptions()
    report_a = StageReport()
    first = execute_pipeline(small_spec, base, 3, cache=cache, report=report_a)
    assert report_a.hit_stages == []
    assert report_a.run_stages == [s.name for s in FULL_FLOW_STAGES]

    # suffix-only change: resumes after the deepest shared stage (signoff);
    # hit_stages lists every stage the resumed prefix covers
    routed = base.with_(router_effort=0.9, router_max_iterations=30)
    report_b = StageReport()
    resumed = execute_pipeline(small_spec, routed, 3, cache=cache, report=report_b)
    assert report_b.hit_stages == [s.name for s in FULL_FLOW_STAGES[:-1]]
    assert report_b.run_stages == ["droute_signoff"]
    assert resumed == MonolithicSPRFlow().run(small_spec, routed, seed=3)
    assert first == MonolithicSPRFlow().run(small_spec, base, seed=3)

    # mid-flow change: resumes from the groute prefix
    report_c = StageReport()
    slow = base.with_(target_clock_ghz=0.4)
    resumed = execute_pipeline(small_spec, slow, 3, cache=cache, report=report_c)
    assert report_c.hit_stages == ["synth", "floorplan", "place", "cts", "groute"]
    assert report_c.run_stages == ["opt", "signoff", "droute_signoff"]
    assert resumed == MonolithicSPRFlow().run(small_spec, slow, seed=3)


def test_resumed_result_carries_its_own_identity(small_spec):
    """A result resumed from another job's prefix must report the
    resuming job's options, not the creating job's."""
    cache = StageCache()
    base = FlowOptions()
    execute_pipeline(small_spec, base, 3, cache=cache)
    routed = base.with_(router_effort=0.9)
    resumed = execute_pipeline(small_spec, routed, 3, cache=cache,
                               report=(report := StageReport()))
    assert report.n_hits >= 1
    assert resumed.options == routed
    assert resumed.seed == 3
    assert resumed.design == small_spec.name


def test_repeat_job_reruns_only_the_uncacheable_suffix(small_spec):
    cache = StageCache()
    report = StageReport()
    first = execute_pipeline(small_spec, FlowOptions(), 3, cache=cache)
    again = execute_pipeline(small_spec, FlowOptions(), 3, cache=cache,
                             report=report)
    # resumed from the deepest cacheable prefix (through signoff)
    assert report.hit_stages == [s.name for s in FULL_FLOW_STAGES[:-1]]
    assert report.run_stages == ["droute_signoff"]
    assert again == first
    # delivered runtime_proxy is the full flow; the router replays the
    # trajectory the first job left, so the repeat executes nothing
    droute = next(log for log in again.logs if log.step == "droute")
    assert report.resumed_iterations == droute.metrics["iterations"] > 0
    assert report.executed_proxy == 0.0 < again.runtime_proxy


def test_resume_with_report_only_executed_accounting(small_spec):
    report = StageReport()
    result = execute_pipeline(small_spec, FlowOptions(), 3, report=report)
    # no cache: everything executed, accounting matches the result
    assert report.executed_proxy == pytest.approx(result.runtime_proxy)


def test_run_flow_job_staged_without_global_cache(small_spec):
    from repro.core.parallel import run_flow_job

    outcome = run_flow_job(small_spec, FlowOptions(), 3, stage_cache=True)
    assert outcome.report.n_hits == 0
    assert outcome.result == MonolithicSPRFlow().run(small_spec, FlowOptions(), seed=3)


# --------------------------------------------------------- StageCache
def test_stage_cache_counts_and_lru(small_spec):
    cache = StageCache(max_entries=2)
    base = FlowOptions()
    execute_pipeline(small_spec, base, 3, cache=cache)
    # only 2 of the 7 cacheable prefixes and the router's trajectory
    # survive under max_entries=2
    assert len(cache) == 2
    assert cache.puts == 8
    report = StageReport()
    execute_pipeline(small_spec, base, 3, cache=cache, report=report)
    # the deepest prefix (through signoff) survived: LRU keeps the latest puts
    assert report.hit_stages[-1] == "signoff"
    assert report.run_stages == ["droute_signoff"]


def test_stage_cache_isolation_between_jobs(small_spec):
    """Every get unpickles a private copy of the snapshot put stored: a
    later job mutating its netlist (the optimizer resizes cells in
    place) must not corrupt the cached prefix another job will resume
    from."""
    from repro.core.parallel.cache import design_fingerprint

    cache = StageCache()
    base = FlowOptions()
    golden = execute_pipeline(small_spec, base.with_(opt_passes=12), 3)
    execute_pipeline(small_spec, base, 3, cache=cache)
    # two gets of one key hand out distinct objects; mutating the first
    # leaves the second intact
    groute_key = keys_by_stage(small_spec, base, 3)["groute"]
    first = cache.get(groute_key, "groute")
    second = cache.get(groute_key, "groute")
    assert first is not second
    fingerprint = design_fingerprint(second.netlist)
    positions = dict(second.placement.positions)
    name, inst = next(iter(first.netlist.instances.items()))
    other = next(c for c in first.netlist.library.variants(inst.cell.function)
                 if c.name != inst.cell.name)
    first.netlist.replace_cell(name, other)
    first.placement.positions[name] = (-1.0, -1.0)
    assert design_fingerprint(first.netlist) != fingerprint
    assert design_fingerprint(second.netlist) == fingerprint
    assert second.placement.positions == positions
    # two different opt suffixes resumed from the same groute prefix
    heavy = execute_pipeline(small_spec, base.with_(opt_passes=12), 3, cache=cache)
    light = execute_pipeline(small_spec, base.with_(opt_passes=3), 3, cache=cache)
    assert heavy == golden  # first resume didn't see a corrupted prefix
    assert light == MonolithicSPRFlow().run(
        small_spec, base.with_(opt_passes=3), seed=3)
    assert heavy != light


def test_stage_cache_hit_miss_counters(small_spec):
    cache = StageCache()
    execute_pipeline(small_spec, FlowOptions(), 3, cache=cache)
    assert sum(cache.misses.values()) > 0 and sum(cache.hits.values()) == 0
    execute_pipeline(small_spec, FlowOptions(router_effort=0.9), 3, cache=cache)
    assert cache.hits.get("signoff") == 1
    cache.clear()
    assert len(cache) == 0


def test_stage_cache_round_trips_ndarray_backed_timing_state(small_spec):
    """The cache round-trips numpy struct-of-arrays timing state.

    The opt stage leaves a live vectorized ``TimingGraph`` (array-backed
    arrival/slew maps, an id-keyed cell-attribute registry, a lazy SoA
    topology) in the full pipeline state.  The pipeline's own snapshots
    keep only what later stages read, which no longer includes the
    graph, so the full state goes through put/get directly.  The pickle
    round trip must keep every alias between the artifacts (else
    ``TimingGraph`` would quietly rebuild its topology on the next
    construction) and produce a kernel that keeps answering incremental
    queries bit-identically — including after cell swaps, which stress
    the copied registry.
    """
    from repro.eda.sta import GraphSTA

    cache = StageCache()
    state = run_stages_through(small_spec, FlowOptions(), 3, "opt")
    cache.put("through-opt", "opt", state)
    cached_state = cache.get("through-opt", "opt")
    assert cached_state is not None and cached_state is not state
    graph = cached_state.timing_graph
    assert graph is not None
    # the copied kernel aliases the copied netlist, not the original,
    # and every artifact shares the resumed netlist and placement
    assert graph.netlist is cached_state.netlist
    assert cached_state.placement.netlist is cached_state.netlist
    topology = cached_state.timing_topology
    assert topology.netlist is cached_state.netlist
    assert topology.placement is cached_state.placement
    assert graph.topology is topology
    nl, pl = cached_state.netlist, cached_state.placement
    want = GraphSTA().analyze(nl, pl, 1100.0, graph.skews,
                              check_hold=graph.check_hold)
    got = graph.report(1100.0)
    assert list(got.endpoints) == list(want.endpoints)
    for name in got.endpoints:
        assert got.endpoints[name].slack == want.endpoints[name].slack
        assert got.endpoints[name].arrival == want.endpoints[name].arrival
    # a cell swap through the copied graph: the id-keyed attribute
    # registry must not confuse copied cells with the originals
    comb = next(n for n, i in nl.instances.items()
                if not i.cell.is_sequential)
    from repro.eda.library import DRIVE_STRENGTHS

    cell = nl.instances[comb].cell
    idx = DRIVE_STRENGTHS.index(cell.drive)
    new_drive = DRIVE_STRENGTHS[idx + 1 if idx + 1 < len(DRIVE_STRENGTHS)
                                else idx - 1]
    nl.replace_cell(comb, nl.library.resize(cell, new_drive))
    graph.update([comb])
    scratch = GraphSTA().analyze(nl, pl, 1100.0, graph.skews,
                                 check_hold=graph.check_hold)
    updated = graph.report(1100.0)
    for name in updated.endpoints:
        assert updated.endpoints[name].slack == scratch.endpoints[name].slack


# ------------------------------------------------- signoff ahead of routing
#: the monolith's log order: routing is logged before signoff even though
#: the staged flow signs off first
STEP_ORDER = ["synth", "floorplan", "place", "cts", "groute", "opt", "droute",
              "signoff"]

#: the fields each stage fills in (the substrate doc's stage table)
OUTPUTS = {
    "synth": ("netlist",),
    "floorplan": ("floorplan",),
    "place": ("placement",),
    "cts": ("clock_tree", "timing_topology"),
    "groute": ("groute", "congestion"),
    "opt": ("opt", "timing_graph"),
    "signoff": (),
    "droute_signoff": ("droute",),
}


def test_every_read_is_produced_upstream():
    """``reads`` names PipelineState fields that the entry or an earlier
    stage fills in: a resumed snapshot can only carry what exists."""
    names = {f.name for f in dataclasses.fields(PipelineState)} - {"result"}
    for stages, entry in ((FULL_FLOW_STAGES, "spec"), (IMPLEMENT_STAGES, "netlist")):
        available = {entry}
        for stage in stages:
            assert set(stage.reads) <= names, stage.name
            assert set(stage.reads) <= available, stage.name
            available |= set(OUTPUTS[stage.name])


def test_each_stage_needs_only_its_reads(small_spec):
    """Run every stage twice from the same pre-stage state: once on the
    full state, once on a state holding only ``result`` and its
    ``reads``.  The results agree, and carrying on from the lean runs'
    artifacts reproduces the monolith — so a snapshot cut to the reads
    of the stages after it loses nothing."""
    options = FlowOptions()
    _, stages, stage_seeds = plan_stages(small_spec, 3)
    state = PipelineState(
        result=FlowResult(design=small_spec.name, options=options, seed=3),
        spec=small_spec)
    for stage, seeds in zip(stages, stage_seeds):
        full = pickle.loads(pickle.dumps(state))
        stage.run(full, options, seeds)
        lean = PipelineState(result=state.result,
                             **{name: getattr(state, name) for name in stage.reads})
        stage.run(lean, options, seeds)
        assert lean.result == full.result, stage.name
        for name in OUTPUTS[stage.name]:
            assert getattr(lean, name) is not None, (stage.name, name)
            setattr(state, name, getattr(lean, name))
    state.result.runtime_proxy = sum(log.runtime_proxy for log in state.result.logs)
    assert state.result == MonolithicSPRFlow().run(small_spec, options, seed=3)


def test_snapshots_keep_only_what_later_stages_read(small_spec):
    cache = StageCache()
    options = FlowOptions()
    execute_pipeline(small_spec, options, 3, cache=cache)
    _, stages, _ = plan_stages(small_spec, 3)
    keys = stage_prefix_keys(small_spec, options, 3)
    for i, stage in enumerate(stages[:-1]):
        snapshot = cache.get(keys[i], stage.name)
        held = {f.name for f in dataclasses.fields(snapshot)
                if getattr(snapshot, f.name) is not None}
        later = {name for after in stages[i + 1:] for name in after.reads}
        assert held <= {"result"} | later, stage.name
        assert "sta_stats" not in held
    # after signoff only the router's congestion map is left to carry
    assert held == {"result", "congestion"}


def test_router_knob_resume_runs_only_detailed_routing(small_spec):
    cache = StageCache()
    base = FlowOptions()
    execute_pipeline(small_spec, base, 3, cache=cache)
    routed = base.with_(router_effort=0.9, router_max_iterations=30)
    report = StageReport()
    resumed = execute_pipeline(small_spec, routed, 3, cache=cache, report=report)
    assert report.hit_stages == [s.name for s in FULL_FLOW_STAGES[:-1]]
    assert report.run_stages == ["droute_signoff"]
    assert report.sta_full == 0 and report.sta_incremental == 0
    droute = next(log for log in resumed.logs if log.step == "droute")
    assert report.executed_proxy == droute.runtime_proxy
    assert resumed == MonolithicSPRFlow().run(small_spec, routed, seed=3)


def test_cold_run_executed_proxy_is_the_result_proxy(small_spec):
    report = StageReport()
    result = execute_pipeline(small_spec, FlowOptions(), 3, cache=StageCache(),
                              report=report)
    assert report.executed_proxy == result.runtime_proxy


def test_logs_keep_the_monolith_order(small_spec, small_netlist):
    cache = StageCache()
    base = FlowOptions()
    results = [execute_pipeline(small_spec, options, 3, cache=cache)
               for options in (base, base.with_(router_effort=0.9),
                                base.with_(target_clock_ghz=0.4))]
    for result in results:
        assert [log.step for log in result.logs] == STEP_ORDER
    implemented = SPRFlow().implement(small_netlist, base, seed=3)
    assert [log.step for log in implemented.logs] == STEP_ORDER[1:]


def stop_after_two_passes(history):
    return len(history) > 2


def test_kill_on_a_signoff_resume_matches_monolith(small_spec):
    """A doomed-run kill fires inside detailed routing; on a job resumed
    after signoff it must cut the same run short as the monolith does,
    and the executor must still see it as a kill."""
    from repro.core.parallel import FlowExecutor, FlowJob

    base = FlowOptions(router_max_iterations=30)
    points = [base.with_(router_effort=effort) for effort in (0.3, 0.5, 0.7)]
    with FlowExecutor(n_workers=1, cache=False, stage_cache=True) as executor:
        killed = executor.run_jobs(
            [FlowJob(small_spec, options, 3) for options in points],
            stop_callback=stop_after_two_passes)
    golden = [MonolithicSPRFlow(stop_callback=stop_after_two_passes).run(
        small_spec, options, seed=3) for options in points]
    assert killed == golden
    assert executor.stats.stage_hits_by_stage.get("signoff") == 2
    assert executor.stats.stage_misses_by_stage.get("signoff") == 1
    assert not any(result.routed for result in killed)
    assert executor.stats.kills == sum(result.final_drvs > 0 for result in killed)
    assert executor.stats.kills > 0


# ------------------------------------------------- resumed router trajectories
#: a router-bound point for the tiny design: at router_effort 0.3 every
#: cap cuts the run short, at 0.9 the 30-iteration run routes clean
ROUTED = FlowOptions(router_tracks_per_um=10.0)


def trajectory_entry_key(design, options, seed, cache):
    """The stage-cache key of the router trajectory a job at
    ``options`` resumes (its congestion map read from ``cache``)."""
    from repro.eda.routing import DetailedRouter
    from repro.eda.stages.droute import trajectory_key

    _, _, stage_seeds = plan_stages(design, seed)
    congestion = cache.get(stage_prefix_keys(design, options, seed)[-2],
                           "signoff").congestion
    router = DetailedRouter(max_iterations=options.router_max_iterations,
                            effort=options.router_effort)
    return trajectory_key(router, congestion, stage_seeds[-1][0])


@pytest.mark.parametrize("effort", [0.3, 0.9])
def test_every_router_sweep_order_matches_monolith(small_spec, effort):
    """Router caps and optimizer passes in every order through one
    stage cache: each job resumes the trajectory the jobs before it
    left (shorter, longer, or made under the other opt point) and
    equals the monolith; what it ran plus what it resumed is its run."""
    import itertools

    points = {(cap, passes): ROUTED.with_(router_effort=effort,
                                          router_max_iterations=cap,
                                          opt_passes=passes)
              for cap in (10, 20, 30) for passes in (4, 8)}
    golden = {point: MonolithicSPRFlow().run(small_spec, options, seed=3)
              for point, options in points.items()}
    iterations = {point: int(next(log.metrics["iterations"] for log in result.logs
                                  if log.step == "droute"))
                  for point, result in golden.items()}
    for caps in itertools.permutations((10, 20, 30)):
        for passes in ((4, 8), (8, 4)):
            cache = StageCache()
            ran = 0
            for point in itertools.product(caps, passes):
                report = StageReport()
                result = execute_pipeline(small_spec, points[point], 3,
                                          cache=cache, report=report)
                assert result == golden[point], (caps, passes, point)
                ran += iterations[point] - report.resumed_iterations
            # the six points share one trajectory: no iteration ran twice
            assert ran == max(iterations.values())


def test_resumed_router_iterations_are_not_executed_work(small_spec):
    from repro.eda.stages.droute import DROUTE_ITERATION_PROXY

    cache = StageCache()
    base = ROUTED.with_(router_effort=0.3)
    execute_pipeline(small_spec, base.with_(router_max_iterations=10), 3, cache=cache)
    # a shorter run is answered from the trajectory's history
    report = StageReport()
    execute_pipeline(small_spec, base.with_(router_max_iterations=5), 3,
                     cache=cache, report=report)
    assert report.run_stages == ["droute_signoff"]
    assert (report.resumed_iterations, report.executed_proxy) == (5, 0.0)
    # a longer one runs only the k iterations past the trajectory's end
    report = StageReport()
    result = execute_pipeline(small_spec, base.with_(router_max_iterations=25), 3,
                              cache=cache, report=report)
    assert report.resumed_iterations == 10
    assert report.executed_proxy == 15 * DROUTE_ITERATION_PROXY
    assert result.runtime_proxy == MonolithicSPRFlow().run(
        small_spec, base.with_(router_max_iterations=25), seed=3).runtime_proxy
    # an opt point shares the trajectory: it runs opt and signoff, and
    # routes from history
    report = StageReport()
    result = execute_pipeline(
        small_spec, base.with_(router_max_iterations=25, opt_passes=3), 3,
        cache=cache, report=report)
    assert report.run_stages == ["opt", "signoff", "droute_signoff"]
    assert report.resumed_iterations == 25
    assert report.executed_proxy == pytest.approx(sum(
        log.runtime_proxy for log in result.logs if log.step in ("opt", "signoff")))


def test_router_trajectories_are_keyed_by_the_congestion_map(small_spec):
    """Points that differ upstream of detailed routing hand the router
    other congestion maps under the same router seed: each draws its
    own trajectory instead of resuming another map's."""
    cache = StageCache()
    for options in (ROUTED, ROUTED.with_(router_tracks_per_um=8.0),
                    ROUTED.with_(utilization=0.6)):
        report = StageReport()
        result = execute_pipeline(small_spec, options, 3, cache=cache, report=report)
        assert result == MonolithicSPRFlow().run(small_spec, options, seed=3)
        assert report.resumed_iterations == 0


def test_cached_trajectory_holds_no_generator(small_spec, monkeypatch):
    """A stored trajectory keeps its generator's state, not a pickled
    generator, and a job that only replays its history builds no
    generator and puts nothing back: the entry stays byte for byte as
    it was."""
    from repro.eda import routing

    base = ROUTED.with_(router_effort=0.3)
    cache = StageCache()
    execute_pipeline(small_spec, base.with_(router_max_iterations=20), 3, cache=cache)
    key = trajectory_entry_key(small_spec, base, 3, cache)
    stored = cache._entries[key]
    assert b"__generator_ctor" not in stored
    assert isinstance(pickle.loads(stored).rng_state, dict)
    puts = cache.puts
    replay = base.with_(router_max_iterations=10)
    golden = MonolithicSPRFlow().run(small_spec, replay, seed=3)

    def no_generator(state):
        raise AssertionError("a replay built a generator")

    monkeypatch.setattr(routing, "_resume_generator", no_generator)
    report = StageReport()
    assert execute_pipeline(small_spec, replay, 3, cache=cache, report=report) == golden
    assert report.resumed_iterations == 10
    assert cache.puts == puts
    assert cache._entries[key] == stored


@pytest.mark.parametrize("caps", [(5, 30), (30, 5)])
def test_resuming_jobs_never_mutate_the_cached_trajectory(small_spec, caps):
    """Two jobs resume from one trajectory entry, in both orders: each
    gets a private copy, the one that runs nothing past the entry leaves
    it as it was, and the one that runs further stores a longer
    trajectory that extends it."""
    base = ROUTED.with_(router_effort=0.3)
    cache = StageCache()
    execute_pipeline(small_spec, base.with_(router_max_iterations=10), 3, cache=cache)
    key = trajectory_entry_key(small_spec, base, 3, cache)
    entry = cache.get(key, "droute_signoff")
    assert cache.get(key, "droute_signoff") is not entry
    for cap in caps:
        options = base.with_(router_max_iterations=cap)
        assert execute_pipeline(small_spec, options, 3, cache=cache) == \
            MonolithicSPRFlow().run(small_spec, options, seed=3)
        after = cache.get(key, "droute_signoff")
        assert after.history[:len(entry.history)] == entry.history
        if len(after.history) == len(entry.history):
            assert np.array_equal(after.violations, entry.violations)
            assert after.rng_state == entry.rng_state
    assert len(after.history) == 31
