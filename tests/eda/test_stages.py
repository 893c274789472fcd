"""The staged pipeline: equivalence with the monolith, prefix keys,
and the stage cache.

The tentpole contract is *bit-identity*: decomposing ``SPRFlow`` into
stages must not change a single field of any ``FlowResult`` — fresh or
resumed from a cached prefix — so every test here compares against
:class:`tests.eda.monolith_reference.MonolithicSPRFlow`, a frozen
verbatim copy of the pre-refactor flow body.
"""

import copy

import pytest

from repro.eda.flow import FlowOptions, SPRFlow
from repro.eda.stages import (
    FULL_FLOW_STAGES,
    IMPLEMENT_STAGES,
    StageCache,
    StageReport,
    execute_pipeline,
    plan_stages,
    run_flow_job_staged,
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
        "synth", "floorplan", "place", "cts", "groute", "opt", "droute_signoff",
    ]
    assert FULL_FLOW_STAGES[1:] == IMPLEMENT_STAGES
    assert all(s.cacheable for s in FULL_FLOW_STAGES[:-1])
    assert not FULL_FLOW_STAGES[-1].cacheable  # droute+signoff is terminal
    # every declared knob is a real FlowOptions field, and every stage
    # can extract its subset
    fields = set(FlowOptions().to_dict())
    for stage in FULL_FLOW_STAGES:
        assert set(stage.knobs) <= fields
        assert set(stage.knob_values(FlowOptions())) == set(stage.knobs)


def test_plan_stages_entry_kinds(small_spec, small_netlist):
    kind, stages, seeds = plan_stages(small_spec, 3)
    assert kind == "spec" and stages == FULL_FLOW_STAGES
    assert [len(s) for s in seeds] == [1, 0, 2, 1, 1, 1, 1]
    kind, stages, seeds = plan_stages(small_netlist, 3)
    assert kind == "netlist" and stages == IMPLEMENT_STAGES
    assert [len(s) for s in seeds] == [0, 2, 1, 1, 1, 1]


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

    # suffix-only change: resumes after the deepest shared stage (opt);
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
    assert report_c.run_stages == ["opt", "droute_signoff"]
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
    # resumed from the deepest cacheable prefix (through opt)
    assert report.hit_stages == [s.name for s in FULL_FLOW_STAGES[:-1]]
    assert report.run_stages == ["droute_signoff"]
    assert again == first
    # delivered runtime_proxy is the full flow; executed is the suffix
    assert again.runtime_proxy > report.executed_proxy > 0


def test_resume_with_report_only_executed_accounting(small_spec):
    report = StageReport()
    result = execute_pipeline(small_spec, FlowOptions(), 3, report=report)
    # no cache: everything executed, accounting matches the result
    assert report.executed_proxy == pytest.approx(result.runtime_proxy)


def test_run_flow_job_staged_without_global_cache(small_spec):
    outcome = run_flow_job_staged(small_spec, FlowOptions(), 3)
    assert outcome.report.n_hits == 0
    assert outcome.result == MonolithicSPRFlow().run(small_spec, FlowOptions(), seed=3)


# --------------------------------------------------------- StageCache
def test_stage_cache_counts_and_lru(small_spec):
    cache = StageCache(max_entries=2)
    base = FlowOptions()
    execute_pipeline(small_spec, base, 3, cache=cache)
    # only 2 of the 6 cacheable prefixes survive under max_entries=2
    assert len(cache) == 2
    assert cache.puts == 6
    report = StageReport()
    execute_pipeline(small_spec, base, 3, cache=cache, report=report)
    # the deepest prefix (through opt) survived: LRU keeps the latest puts
    assert report.hit_stages[-1] == "opt"
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
    groute_key = stage_prefix_keys(small_spec, base, 3)[-3]
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
    assert cache.hits.get("opt") == 1
    cache.clear()
    assert len(cache) == 0


def test_stage_cache_round_trips_ndarray_backed_timing_state(small_spec):
    """Cached prefixes now carry numpy struct-of-arrays timing state.

    The opt stage leaves a live vectorized ``TimingGraph`` (array-backed
    arrival/slew maps, an id-keyed cell-attribute registry, a lazy SoA
    topology) in the snapshot; the pickle round trip through put/get
    must keep every alias between the artifacts (else ``TimingGraph``
    would quietly rebuild its topology on the next construction) and
    produce a kernel that keeps answering incremental queries
    bit-identically — including after cell swaps, which stress the
    copied registry.
    """
    from repro.eda.sta import GraphSTA

    cache = StageCache()
    base = FlowOptions()
    execute_pipeline(small_spec, base, 3, cache=cache)
    opt_key = stage_prefix_keys(small_spec, base, 3)[-2]  # prefix through opt
    cached_state = cache.get(opt_key, "opt")
    assert cached_state is not None
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


def test_external_synth_log_disables_caching(small_spec, small_netlist):
    """Partition flows pass a pre-built synth log; those results must
    never be served from (or into) the stage cache."""
    from repro.eda.flow import StepLog

    cache = StageCache()
    log = StepLog("synth", {"gates": 1.0}, runtime_proxy=5.0)
    report = StageReport()
    execute_pipeline(small_netlist, FlowOptions(), 3, synth_log=log,
                     cache=cache, report=report)
    assert len(cache) == 0
    assert report.n_hits == 0
