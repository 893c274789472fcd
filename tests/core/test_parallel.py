"""The parallel flow-execution engine and its result cache."""

import dataclasses
import functools
import os
import time

import numpy as np
import pytest

from repro.core.parallel import (
    FlowExecutionError,
    FlowExecutor,
    FlowJob,
    ResultCache,
    cache_key,
    design_fingerprint,
    flow_result_from_dict,
    flow_result_to_dict,
    run_flow_job,
)
from repro.eda.flow import FlowOptions, SPRFlow
from repro.eda.synthesis import DesignSpec


OPTS = FlowOptions(target_clock_ghz=0.6)


# ------------------------------------------------------------- cache keys
def test_cache_key_is_stable(small_spec):
    assert cache_key(small_spec, OPTS, 3) == cache_key(small_spec, OPTS, 3)


def test_cache_key_separates_design_options_seed(small_spec, small_netlist):
    base = cache_key(small_spec, OPTS, 3)
    assert cache_key(small_spec, OPTS, 4) != base
    assert cache_key(small_spec, OPTS.with_(opt_passes=7), 3) != base
    assert cache_key(small_netlist, OPTS, 3) != base


def test_design_fingerprint_types(small_spec, small_netlist):
    assert design_fingerprint(small_spec).startswith("spec:")
    assert design_fingerprint(small_netlist).startswith("netlist:")
    with pytest.raises(TypeError):
        design_fingerprint("pulpino")


# Disk-tier entries outlive versions of this code: a key that moves
# silently orphans every cached result, so two points are pinned.
PIN_SPEC = DesignSpec(name="pin", n_gates=96, n_flops=12, n_inputs=6, n_outputs=6,
                      depth=8, locality=0.7,
                      function_mix={"NAND2": 0.4, "NOR2": 0.3, "INV": 0.2, "XOR2": 0.1})


def test_design_fingerprint_is_pinned():
    assert design_fingerprint(PIN_SPEC) == \
        "spec:92b351c5a9d283ce8823a4012296fc9d9f5aef1eb77f259f71d1412a24030bed"


def test_cache_keys_are_pinned():
    assert cache_key(PIN_SPEC, FlowOptions(), 0) == \
        "266a439e421a39b49e103370ff25d75b87abbb937c203be9fda2888a3df65906"
    options = FlowOptions(target_clock_ghz=0.6, router_max_iterations=np.int64(30),
                          opt_guardband=12.5, power_recovery=False)
    assert cache_key(DesignSpec(name="pin2", n_gates=200, n_flops=20, depth=12),
                     options, 7) == \
        "f9e28d344177b9c2024ffcaac75e3e62c5aa6d737f69090202abcd7b3f7f5f6a"


def test_options_to_dict_matches_asdict():
    """``to_dict`` skips ``asdict``'s deep copy and nothing else: the
    same keys in the same order, holding equal values of equal types,
    at the defaults, at numpy-integer knobs and at sampled points of
    the option tree."""
    from repro.dse import default_flow_space

    space, rng = default_flow_space(), np.random.default_rng(0)
    points = [FlowOptions(),
              OPTS.with_(router_max_iterations=np.int64(35), opt_passes=np.int32(3))]
    points += [space.to_flow_options(space.sample(rng)) for _ in range(4)]
    for options in points:
        got, want = options.to_dict(), dataclasses.asdict(options)
        assert list(got) == list(want)
        assert [(v, type(v)) for v in got.values()] == \
            [(v, type(v)) for v in want.values()]


def test_flow_result_json_round_trip(small_spec):
    result = SPRFlow().run(small_spec, OPTS, seed=9)
    assert flow_result_from_dict(flow_result_to_dict(result)) == result


def test_disk_tier_loads_intern_log_keys(small_spec, tmp_path):
    import sys

    result = SPRFlow().run(small_spec, OPTS, seed=9)
    ResultCache(cache_dir=str(tmp_path)).put("k", result)
    loaded = ResultCache(cache_dir=str(tmp_path)).get("k")
    assert loaded == result
    for log in loaded.logs:
        assert log.step is sys.intern(log.step)
        for key in [*log.metrics, *log.series]:
            assert key is sys.intern(key)


def test_result_cache_malformed_log_is_a_miss(small_spec, tmp_path):
    import json

    result = SPRFlow().run(small_spec, OPTS, seed=9)
    ResultCache(cache_dir=str(tmp_path)).put("k", result)
    with open(tmp_path / "k.json") as fh:
        data = json.load(fh)
    data["logs"][0]["metrics"] = [1.0, 2.0]  # a list where a dict belongs
    (tmp_path / "k.json").write_text(json.dumps(data))
    assert ResultCache(cache_dir=str(tmp_path)).get("k") is None


def test_result_cache_lru_eviction(small_spec):
    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(max_entries=2)
    for k in ("a", "b", "c"):
        cache.put(k, result)
    assert len(cache) == 2
    assert cache.get("a") is None  # oldest evicted
    assert cache.get("c") == result


def test_result_cache_disk_tier(small_spec, tmp_path):
    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put("k", result)
    fresh = ResultCache(cache_dir=str(tmp_path))  # new process, cold memory
    assert fresh.get("k") == result
    assert fresh.last_tier == "disk"
    assert fresh.get("k") == result
    assert fresh.last_tier == "memory"  # promoted


def test_result_cache_corrupt_disk_entry_is_a_miss(tmp_path):
    # malformed JSON, and valid JSON that is not an object
    payloads = ["{not json", "[1, 2]", "null", "42", '"x"']
    for i, payload in enumerate(payloads):
        (tmp_path / f"bad{i}.json").write_text(payload)
    cache = ResultCache(cache_dir=str(tmp_path))
    for i, payload in enumerate(payloads):
        assert cache.get(f"bad{i}") is None, payload


def test_unreadable_disk_entry_is_a_miss(small_spec, tmp_path):
    """A directory where a job's disk entry belongs cannot be opened:
    the lookup is a miss, the job runs, and the put that cannot replace
    the directory fails quietly."""
    job = FlowJob(small_spec, OPTS, 5)
    entry = f"{cache_key(job.design, job.options, job.seed)}.json"
    os.mkdir(tmp_path / entry)
    executor = FlowExecutor(n_workers=1, cache=ResultCache(cache_dir=str(tmp_path)))
    assert executor.run_jobs([job]) == [SPRFlow().run(small_spec, OPTS, seed=5)]
    assert executor.stats.jobs_run == 1
    assert os.listdir(tmp_path) == [entry]  # no temp file left behind


def test_result_cache_unserializable_put_leaks_nothing(tmp_path):
    """A result the disk tier cannot serialize (TypeError inside
    json.dump) must not leave .tmp droppings or leak descriptors."""
    cache = ResultCache(cache_dir=str(tmp_path))
    fd_dir = "/proc/self/fd"
    before = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
    for i in range(20):
        cache.put(f"k{i}", object())  # not a dataclass: asdict raises
    assert os.listdir(str(tmp_path)) == []  # no .tmp, no .json
    assert cache.get("k0") is not None  # memory tier still served
    if before is not None:
        assert len(os.listdir(fd_dir)) <= before + 1  # no fd leak


def test_result_cache_clear_disk_removes_stale_tmp(small_spec, tmp_path):
    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put("k", result)
    (tmp_path / "killed-writer.tmp").write_text("{partial")
    (tmp_path / "notes.txt").write_text("keep me")  # foreign file
    cache.clear(disk=True)
    assert len(cache) == 0
    assert sorted(os.listdir(str(tmp_path))) == ["notes.txt"]
    fresh = ResultCache(cache_dir=str(tmp_path))
    assert fresh.get("k") is None


def test_result_cache_clear_disk_skips_directories_and_vanished_entries(
        small_spec, tmp_path, monkeypatch):
    """A directory under an entry's name is not an entry: ``clear``
    leaves it, still removes the entries that sort after it, and takes
    a listed entry that is already gone as removed."""
    directory, entry = f"{'0' * 64}.json", "f" * 64
    os.mkdir(tmp_path / directory)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put(entry, SPRFlow().run(small_spec, OPTS, seed=9))
    listdir = os.listdir
    monkeypatch.setattr(os, "listdir", lambda path: listdir(path) + ["gone.json"])
    cache.clear(disk=True)
    monkeypatch.undo()
    assert os.listdir(str(tmp_path)) == [directory]
    assert ResultCache(cache_dir=str(tmp_path)).get(entry) is None


# ------------------------------------------------------- executor basics
def test_executor_matches_direct_flow(small_spec):
    direct = SPRFlow().run(small_spec, OPTS, seed=5)
    via = FlowExecutor(n_workers=1).run_one(small_spec, OPTS, 5)
    assert via == direct
    assert via.seed == 5


def test_executor_results_in_submission_order(small_spec):
    seeds = [4, 1, 3, 2]
    results = FlowExecutor(n_workers=1).run_jobs(
        [FlowJob(small_spec, OPTS, s) for s in seeds]
    )
    assert [r.seed for r in results] == seeds


def test_executor_implements_netlists(small_spec, library):
    from repro.eda.synthesis import synthesize

    netlist = synthesize(small_spec, library, effort=0.5, seed=7)  # private copy:
    result = FlowExecutor(n_workers=1).run_one(netlist, OPTS, 2)   # implement mutates
    assert result.design == netlist.name
    assert [log.step for log in result.logs][0] == "floorplan"  # no synth step


def test_executor_dedupes_within_batch(small_spec):
    executor = FlowExecutor(n_workers=1)
    results = executor.run_jobs([FlowJob(small_spec, OPTS, 1)] * 4)
    assert executor.stats.jobs_run == 1
    assert executor.stats.deduped == 3
    assert all(r == results[0] for r in results)


def test_executor_repeated_campaign_hits_cache(small_spec):
    executor = FlowExecutor(n_workers=1)
    jobs = [FlowJob(small_spec, OPTS, s) for s in range(6)]
    first = executor.run_jobs(jobs)
    ran_before = executor.stats.jobs_run
    again = executor.run_jobs(jobs)
    assert executor.stats.jobs_run == ran_before  # zero new runs
    assert executor.stats.cache_hits_memory == len(jobs)
    assert again == first
    # the acceptance bar: a repeated campaign is >= 95% cache hits
    assert executor.stats.cache_hits / len(jobs) >= 0.95


def test_executor_disk_cache_across_instances(small_spec, tmp_path):
    jobs = [FlowJob(small_spec, OPTS, s) for s in range(3)]
    with FlowExecutor(n_workers=1, cache=True, cache_dir=str(tmp_path)) as first:
        a = first.run_jobs(jobs)
    with FlowExecutor(n_workers=1, cache=True, cache_dir=str(tmp_path)) as second:
        b = second.run_jobs(jobs)
        assert second.stats.jobs_run == 0
        assert second.stats.cache_hits_disk == 3
    assert a == b


def test_executor_cache_disabled(small_spec):
    executor = FlowExecutor(n_workers=1, cache=None)
    executor.run_jobs([FlowJob(small_spec, OPTS, 1)] * 2)
    assert executor.stats.jobs_run == 2
    assert executor.stats.cache_hits == 0


def test_executor_validation():
    with pytest.raises(ValueError):
        FlowExecutor(n_workers=0)
    with pytest.raises(ValueError):
        FlowExecutor(timeout_s=0)
    with pytest.raises(ValueError):
        FlowExecutor(max_retries=-1)
    with pytest.raises(ValueError):
        FlowExecutor(cache=ResultCache(), cache_dir="/tmp/x")


# -------------------------------------------------- failure semantics
def _crash_always(design, options, seed, stop_callback=None, stage_cache=False):
    raise RuntimeError("license server exploded")


def _crash_once(flag_path, design, options, seed, stop_callback=None,
                stage_cache=False):
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("crashed")
        raise RuntimeError("transient crash")
    return run_flow_job(design, options, seed, stop_callback, stage_cache)


def _sleepy(design, options, seed, stop_callback=None, stage_cache=False):
    time.sleep(2.0)
    return run_flow_job(design, options, seed, stop_callback, stage_cache)


def test_crash_is_recorded_not_raised(small_spec):
    executor = FlowExecutor(n_workers=1, flow_fn=_crash_always, max_retries=1)
    outcomes = executor.run_jobs([FlowJob(small_spec, OPTS, 1),
                                  FlowJob(small_spec, OPTS, 2)])
    assert all(isinstance(o, FlowExecutionError) for o in outcomes)
    assert outcomes[0].attempts == 2
    assert outcomes[1].seed == 2
    assert executor.stats.failures == 2
    assert executor.stats.retries == 2


def test_crash_retry_recovers(small_spec, tmp_path):
    flow_fn = functools.partial(_crash_once, str(tmp_path / "flag"))
    executor = FlowExecutor(n_workers=1, flow_fn=flow_fn, max_retries=1,
                            cache=None)
    result = executor.run_one(small_spec, OPTS, 3)
    assert result == SPRFlow().run(small_spec, OPTS, seed=3)
    assert executor.stats.retries == 1
    assert executor.stats.failures == 0


def test_crash_in_worker_process_recorded(small_spec):
    with FlowExecutor(n_workers=2, flow_fn=_crash_always, max_retries=0,
                      cache=None) as executor:
        good_and_bad = executor.run_jobs([FlowJob(small_spec, OPTS, 1)])
    assert isinstance(good_and_bad[0], FlowExecutionError)
    assert executor.stats.failures == 1


def test_timeout_recorded_in_process_mode(small_spec):
    with FlowExecutor(n_workers=2, flow_fn=_sleepy, timeout_s=0.2,
                      cache=None) as executor:
        outcome = executor.run_one(small_spec, OPTS, 1)
    assert isinstance(outcome, FlowExecutionError)
    assert outcome.kind == "timeout"
    assert executor.stats.timeouts == 1


def test_failed_jobs_are_not_cached(small_spec, tmp_path):
    flow_fn = functools.partial(_crash_once, str(tmp_path / "flag"))
    executor = FlowExecutor(n_workers=1, flow_fn=flow_fn, max_retries=0)
    first = executor.run_one(small_spec, OPTS, 3)
    assert isinstance(first, FlowExecutionError)
    second = executor.run_one(small_spec, OPTS, 3)  # flag now exists
    assert second == SPRFlow().run(small_spec, OPTS, seed=3)


# ----------------------------------------------------------- generic map
def _square(x):
    return x * x


def test_generic_map_preserves_order():
    executor = FlowExecutor(n_workers=1)
    assert executor.map(_square, [(3,), (1,), (2,)]) == [9, 1, 4]


def test_generic_map_records_failures():
    executor = FlowExecutor(n_workers=1, max_retries=0)
    out = executor.map(_square, [(2,), ("oops",)])
    assert out[0] == 4
    assert isinstance(out[1], FlowExecutionError)


# --------------------------------------------------------------- speedup
@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="speedup acceptance needs >= 4 cores")
def test_twenty_run_campaign_speedup_on_four_workers(small_spec):
    """Acceptance bar: a 20-run campaign via FlowExecutor(n_workers=4)
    is >= 2x faster wall-clock than the serial loop, with identical
    results."""
    jobs = [FlowJob(small_spec, OPTS, s) for s in range(20)]
    t0 = time.perf_counter()
    serial = [SPRFlow().run(j.design, j.options, seed=j.seed) for j in jobs]
    t_serial = time.perf_counter() - t0
    with FlowExecutor(n_workers=4, cache=None) as executor:
        executor.run_jobs(jobs[:1])  # absorb pool start-up cost
        t0 = time.perf_counter()
        parallel = executor.run_jobs(jobs)
        t_parallel = time.perf_counter() - t0
    assert parallel == serial
    assert t_serial / t_parallel >= 2.0


# ----------------------------------------------------------------- stats
def test_stats_summary_and_accounting(small_spec):
    executor = FlowExecutor(n_workers=1)
    results = executor.run_jobs([FlowJob(small_spec, OPTS, s) for s in (1, 1, 2)])
    stats = executor.stats
    assert stats.jobs_submitted == 3
    assert stats.jobs_run == 2
    assert stats.deduped == 1
    assert stats.wall_time_s > 0
    assert stats.runtime_proxy_total == pytest.approx(
        sum(r.runtime_proxy for r in results)
    )
    line = stats.summary()
    assert "jobs=3" in line and "retries=0" in line and "wall=" in line


# ------------------------------------------------------ schema versioning
def test_disk_entries_carry_schema_version(small_spec, tmp_path):
    import json

    from repro.core.parallel import CACHE_SCHEMA

    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put("k", result)
    with open(tmp_path / "k.json") as fh:
        assert json.load(fh)["schema"] == CACHE_SCHEMA


def test_unversioned_disk_entry_is_a_miss(small_spec, tmp_path):
    """Entries written before schema versioning (no ``schema`` field)
    must be treated as misses, not deserialized on faith."""
    import json

    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put("k", result)
    with open(tmp_path / "k.json") as fh:
        data = json.load(fh)
    del data["schema"]
    (tmp_path / "k.json").write_text(json.dumps(data))
    fresh = ResultCache(cache_dir=str(tmp_path))
    assert fresh.get("k") is None


def test_wrong_schema_disk_entry_is_a_miss(small_spec, tmp_path):
    import json

    result = SPRFlow().run(small_spec, OPTS, seed=9)
    cache = ResultCache(cache_dir=str(tmp_path))
    cache.put("k", result)
    with open(tmp_path / "k.json") as fh:
        data = json.load(fh)
    data["schema"] = 999
    (tmp_path / "k.json").write_text(json.dumps(data))
    fresh = ResultCache(cache_dir=str(tmp_path))
    assert fresh.get("k") is None
    # memory tier of the writing instance is unaffected
    assert cache.get("k") == result


# ------------------------------------------------------- stage caching
def test_executor_stage_cache_serial(small_spec):
    """A fixed-seed suffix-knob sweep through a stage-cached executor:
    identical results, fewer executed proxy units, hits reported."""
    options = [OPTS.with_(router_effort=e) for e in (0.3, 0.6, 0.9)]
    jobs = [FlowJob(small_spec, o, 5) for o in options]
    plain = FlowExecutor(n_workers=1, cache=False)
    baseline = plain.run_jobs(jobs)
    staged = FlowExecutor(n_workers=1, cache=False, stage_cache=True)
    cached = staged.run_jobs(jobs)
    assert cached == baseline
    assert staged.stats.stage_hits > 0
    assert staged.stats.stage_hits_by_stage.get("opt", 0) > 0
    assert 0 < staged.stats.runtime_proxy_executed < staged.stats.runtime_proxy_total
    assert plain.stats.runtime_proxy_executed == pytest.approx(
        plain.stats.runtime_proxy_total)
    assert staged.stats.runtime_proxy_executed < plain.stats.runtime_proxy_executed
    line = staged.stats.summary()
    assert "stage_hits=" in line and "work_executed=" in line
    assert "stage_hits=" not in plain.stats.summary()  # only shown when active


def test_executor_counts_resumed_router_iterations(small_spec):
    """Router-cap points at one effort share one trajectory: the
    executor counts the iterations they resumed, and executed work and
    each job's ``stage.runtime_proxy`` record leave them out; no other
    record is added."""
    from repro.eda.stages.droute import DROUTE_ITERATION_PROXY
    from repro.metrics import MetricsCollector, MetricsServer, make_run_id

    base = OPTS.with_(router_tracks_per_um=10.0, router_effort=0.3)
    jobs = [FlowJob(small_spec, base.with_(router_max_iterations=cap), 5)
            for cap in (10, 20, 5)]
    names = {}
    for stage_cache in (False, True):
        server = MetricsServer()
        with MetricsCollector(server, cross_process=False) as collector:
            with FlowExecutor(n_workers=1, cache=None, collector=collector,
                              stage_cache=stage_cache) as executor:
                results = executor.run_jobs(jobs)
            collector.flush()
        vectors = [server.run_vector(make_run_id(job.design, job.options, job.seed))
                   for job in jobs]
        names[stage_cache] = [sorted(vector) for vector in vectors]
    iterations = [int(next(log.metrics["iterations"] for log in result.logs
                           if log.step == "droute")) for result in results]
    assert iterations == [10, 20, 5]
    assert executor.stats.resumed_iterations == 10 + 5
    assert "resumed_iterations=15" in executor.stats.summary()
    assert [vector["stage.runtime_proxy"] for vector in vectors][1:] == \
        [10 * DROUTE_ITERATION_PROXY, 0.0]
    assert sum(vector["stage.runtime_proxy"] for vector in vectors) == \
        pytest.approx(executor.stats.runtime_proxy_executed)
    assert names[True] == names[False]


def test_collecting_executor_hashes_each_job_once(small_spec, monkeypatch):
    """With a collector attached, one ``cache_key`` per job serves both
    the result cache and the job's run id."""
    import repro.core.parallel.executor as executor_module
    import repro.metrics.wrappers as wrappers_module
    from repro.metrics import MetricsCollector, MetricsServer, make_run_id

    calls = []

    def counting_cache_key(*args):
        calls.append(args)
        return cache_key(*args)

    for module in (executor_module, wrappers_module):
        monkeypatch.setattr(module, "cache_key", counting_cache_key)
    jobs = [FlowJob(small_spec, OPTS, seed) for seed in (5, 6)]
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, collector=collector) as executor:
            executor.run_jobs(jobs)
        collector.flush()
    assert len(calls) == len(jobs)
    monkeypatch.undo()
    for job in jobs:
        assert server.run_vector(make_run_id(job.design, job.options, job.seed))


def test_each_serial_executor_owns_its_stage_cache():
    """Building a second stage-caching executor does not empty the
    first one's cache, and ``close`` releases an executor's cache."""
    from repro.bench.generators import design_profile

    spec = design_profile("PHY")
    first, second = (FlowJob(spec, FlowOptions(router_effort=effort), 5)
                     for effort in (0.5, 0.9))
    a = FlowExecutor(n_workers=1, cache=None, stage_cache=True)
    a.run_jobs([first])
    with FlowExecutor(n_workers=1, cache=None, stage_cache=True) as b:
        a.run_jobs([second])
        assert a.stats.stage_hits == 7  # synth..signoff
        b.run_jobs([second])
        assert b.stats.stage_hits == 0
    a.close()
    a.run_jobs([second])  # a fresh cache after close: nothing to resume
    assert a.stats.stage_hits == 7
    a.close()


def test_executor_stage_cache_pool_mode(small_spec):
    jobs = [FlowJob(small_spec, OPTS.with_(router_effort=e), 5)
            for e in (0.3, 0.6, 0.9, 0.45)]
    baseline = FlowExecutor(n_workers=1, cache=False).run_jobs(jobs)
    with FlowExecutor(n_workers=2, cache=False, stage_cache=True) as executor:
        assert executor.run_jobs(jobs) == baseline
        # more jobs than workers -> some worker ran >= 2 jobs, and its
        # worker-local cache served the shared prefix (pigeonhole)
        assert executor.stats.stage_hits > 0


def test_executor_persists_stage_stats(small_spec, tmp_path):
    import json

    jobs = [FlowJob(small_spec, OPTS.with_(router_effort=e), 5)
            for e in (0.3, 0.9)]
    with FlowExecutor(n_workers=1, cache=True, cache_dir=str(tmp_path),
                      stage_cache=True) as executor:
        executor.run_jobs(jobs)
    with open(tmp_path / "cache-stats.json") as fh:
        stats = json.load(fh)
    assert stats["jobs_run"] == 2
    assert stats["stage_hits"] > 0
    assert stats["stage_hits_by_stage"].get("opt", 0) > 0
    # a second campaign over the same dir merges by sum
    with FlowExecutor(n_workers=1, cache=True, cache_dir=str(tmp_path),
                      stage_cache=True) as executor:
        executor.run_jobs(jobs)
    with open(tmp_path / "cache-stats.json") as fh:
        merged = json.load(fh)
    assert merged["jobs_submitted"] == stats["jobs_submitted"] * 2


@pytest.mark.parametrize("payload", ["[1, 2]", '"x"'])
def test_executor_close_rewrites_non_object_stats_file(tmp_path, payload):
    import json

    (tmp_path / "cache-stats.json").write_text(payload)
    executor = FlowExecutor(n_workers=1, cache=True, cache_dir=str(tmp_path))
    executor.stats.jobs_submitted = 3
    executor.close()  # must not raise: stats persistence never fails
    with open(tmp_path / "cache-stats.json") as fh:
        stats = json.load(fh)
    assert stats["jobs_submitted"] == 3


def test_cache_stats_survive_concurrent_executors(tmp_path):
    """Two executors closing at once must not lose each other's counters.

    The persist path is read-merge-write on a shared json file; before
    it took an exclusive flock, overlapping closes could both read the
    same prior file and the later writer silently dropped the earlier
    one's counts.  Hammer the window from several threads: every single
    increment must survive into the final file.
    """
    import json
    import threading

    n_threads, rounds = 4, 20
    barrier = threading.Barrier(n_threads)
    errors = []

    def persist_loop():
        try:
            barrier.wait()
            for _ in range(rounds):
                executor = FlowExecutor(
                    n_workers=1, cache=True, cache_dir=str(tmp_path)
                )
                executor.stats.jobs_submitted = 1
                executor.stats.jobs_run = 1
                executor.stats.stage_hits_by_stage["opt"] = 1
                executor.close()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=persist_loop) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    with open(tmp_path / "cache-stats.json") as fh:
        stats = json.load(fh)
    expected = n_threads * rounds
    assert stats["jobs_submitted"] == expected
    assert stats["jobs_run"] == expected
    assert stats["stage_hits_by_stage"]["opt"] == expected
    # never leaks partially-written temp files
    assert not list(tmp_path.glob("*.tmp"))
