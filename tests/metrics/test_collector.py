"""Cross-process METRICS collection: run ids, transmitters into the
collector's queue, MetricsCollector, the batched transport, and the
instrumented FlowExecutor path."""

import math

import numpy as np
import pytest

from repro.bench.generators import design_profile
from repro.core.parallel import FlowExecutionError, FlowExecutor, FlowJob, cache_key
from repro.eda.flow import FlowOptions
from repro.eda.stages import FULL_FLOW_STAGES
from repro.metrics import (
    DataMiner,
    InstrumentedFlow,
    MetricsCollector,
    MetricsServer,
    Transmitter,
    make_run_id,
)
from repro.metrics.schema import EXECUTOR_EVENT_METRICS, MetricRecord

OPTS = FlowOptions(target_clock_ghz=0.6)


def campaign_jobs(spec, n=8, seed=7):
    """n distinct flow points with enough option spread for the miner."""
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        options = OPTS.with_(
            target_clock_ghz=float(rng.uniform(0.5, 0.9)),
            utilization=float(rng.uniform(0.55, 0.85)),
            synth_effort=float(rng.uniform(0.2, 0.9)),
            opt_guardband=float(rng.uniform(0.0, 50.0)),
        )
        jobs.append(FlowJob(spec, options, i))
    return jobs


# ------------------------------------------------------------------ run ids
def test_run_id_content_derived(small_spec):
    base = make_run_id(small_spec, OPTS, 1)
    assert base.startswith("tiny-")
    assert make_run_id(small_spec, OPTS, 1) == base  # same point, same id
    assert make_run_id(small_spec, OPTS, 2) != base
    assert make_run_id(small_spec, OPTS.with_(utilization=0.6), 1) != base


def test_run_ids_are_the_cache_key_prefix():
    """Warehouses persist run ids, so these literals must never change."""
    options = FlowOptions(router_effort=0.3, target_clock_ghz=0.71)
    phy, mcu = design_profile("PHY"), design_profile("MCU")
    assert make_run_id(phy, options, 0) == "phy-8d9b25be048d"
    assert make_run_id(mcu, options, 0) == "pulpino-92027d1ca4a6"
    assert make_run_id(mcu, options, 0) == "pulpino-" + cache_key(mcu, options, 0)[:12]


def test_run_ids_unique_across_campaign(small_spec):
    jobs = campaign_jobs(small_spec, n=12)
    ids = {make_run_id(j.design, j.options, j.seed) for j in jobs}
    assert len(ids) == 12


# ---------------------------------------------------------------- collector
def test_collector_requires_start():
    collector = MetricsCollector(MetricsServer(), cross_process=False)
    with pytest.raises(RuntimeError):
        collector.queue
    collector.stop()  # stopping an unstarted collector is a no-op


def test_queue_transmitter_validates_and_delivers():
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        tx = Transmitter(collector.queue, "d", "r1", "tool")
        with pytest.raises(ValueError):
            tx.send("garbage.name", 1.0)  # vocabulary check at send
        tx.send("flow.area", 10.0)
        tx.flush()
        collector.flush()
        assert len(server) == 1
    assert server.run_vector("r1") == {"flow.area": 10.0}
    assert collector.received == 1 and collector.dropped == 0


def test_collector_drops_malformed_items_without_dying():
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        collector.queue.put("<not-a-metric/>")
        with Transmitter(collector.queue, "d", "r1", "tool") as tx:
            tx.send("flow.area", 1.0)
        collector.flush()
    assert collector.dropped == 1
    assert len(server) == 1


# --------------------------------------------------------- batched transport
class PutCounter:
    """A queue wrapper that keeps every message put through it."""

    def __init__(self, queue):
        self._queue = queue
        self.messages = []

    def put(self, item):
        self.messages.append(item)
        self._queue.put(item)

    def __getattr__(self, name):
        return getattr(self._queue, name)


def counting_collector(server, **kwargs):
    """A started in-process collector whose queue counts its messages."""
    collector = MetricsCollector(server, cross_process=False, **kwargs).start()
    collector._queue = PutCounter(collector._queue)
    return collector


def _record(metric, value, sequence):
    return MetricRecord(design="d", run_id="r1", tool="tool",
                        metric=metric, value=value, sequence=sequence)


def test_a_flush_is_one_message_of_the_records_xml():
    server = MetricsServer()
    collector = counting_collector(server)
    try:
        with Transmitter(collector.queue, "d", "r1", "tool") as tx:
            tx.send("flow.area", 10.0)
            tx.send("flow.runtime", 2.0)
            tx.send("flow.success", 1.0)
        collector.flush()
        assert collector.queue.messages == [[
            _record("flow.area", 10.0, 0).to_xml(),
            _record("flow.runtime", 2.0, 1).to_xml(),
            _record("flow.success", 1.0, 2).to_xml(),
        ]]
        assert collector.received == 3  # records, not messages
        assert server.run_vector("r1") == {
            "flow.area": 10.0, "flow.runtime": 2.0, "flow.success": 1.0}
    finally:
        collector.stop()


def test_a_job_reports_in_one_message_per_transmitter_flush(small_spec):
    """Step records arrive in ceil(n / buffer_size) messages, the 18
    executor events in one, and every string is the record's XML."""
    server = MetricsServer()
    collector = counting_collector(server)
    try:
        with FlowExecutor(n_workers=1, cache=None, collector=collector) as executor:
            executor.run_one(small_spec, OPTS, 3)
        collector.flush()
        messages = list(collector.queue.messages)  # stop() adds a sentinel
    finally:
        collector.stop()
    run_id = make_run_id(small_spec, OPTS, 3)
    by_tool = {}
    for message in messages:
        decoded = [MetricRecord.from_xml(xml) for xml in message]
        assert [record.to_xml() for record in decoded] == message
        assert {record.tool for record in decoded} == {decoded[0].tool}
        by_tool.setdefault(decoded[0].tool, []).append(decoded)
    n_steps = len(server.query(run_id=run_id, tool="spr_flow"))
    assert n_steps > 32
    assert len(by_tool["spr_flow"]) == math.ceil(n_steps / 32)
    assert all(len(m) == 32 for m in by_tool["spr_flow"][:-1])
    assert [len(m) for m in by_tool["flow_executor"]] == [len(EXECUTOR_EVENT_METRICS)]
    assert collector.received == n_steps + len(EXECUTOR_EVENT_METRICS)
    assert len(server) == collector.received


class FlakyQueue:
    """Refuses the first put (a dropped manager link), keeps the rest."""

    def __init__(self):
        self.messages = []
        self.failed = False

    def put(self, item):
        if not self.failed:
            self.failed = True
            raise ConnectionError("manager link dropped")
        self.messages.append(item)


class FlakyServer(MetricsServer):
    """Refuses the first put (a dropped link), ingests and keeps the rest."""

    def __init__(self):
        super().__init__()
        self.messages = []
        self.failed = False

    def put(self, message):
        if not self.failed:
            self.failed = True
            raise ConnectionError("link dropped")
        self.messages.append(message)
        return super().put(message)


@pytest.mark.parametrize("target", [FlakyServer, FlakyQueue], ids=["server", "queue"])
def test_a_failed_put_loses_that_flush_and_never_resends_it(target):
    target = target()
    tx = Transmitter(target, "d", "r1", "tool")
    tx.send("flow.area", 1.0)
    tx.send("flow.runtime", 2.0)
    with pytest.raises(ConnectionError):
        tx.flush()
    assert tx._buffer == []  # at-most-once: nothing left to re-send
    tx.send("flow.success", 1.0)
    tx.flush()
    tx.flush()  # an empty buffer puts nothing
    assert target.messages == [[_record("flow.success", 1.0, 2).to_xml()]]


def test_a_malformed_record_drops_alone_and_a_bare_string_drops_whole():
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        collector.queue.put([_record("flow.area", 1.0, 0).to_xml(),
                             "<not-a-metric/>",
                             _record("flow.runtime", 2.0, 1).to_xml()])
        collector.queue.put(_record("flow.success", 1.0, 2).to_xml())
        collector.queue.put(7)  # not a message at all
        collector.flush()
        assert collector.dropped == 3
        assert collector.received == 2
    assert server.run_vector("r1") == {"flow.area": 1.0, "flow.runtime": 2.0}


def test_in_process_and_collected_reports_store_the_same_records(small_spec):
    """``InstrumentedFlow`` (transmitter into the server) and a serial
    executor (transmitter into the collector's queue) store one job's
    step records identically."""
    direct = MetricsServer()
    InstrumentedFlow(direct).run(small_spec, OPTS, seed=3)
    collected = MetricsServer()
    with MetricsCollector(collected, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None, collector=collector) as executor:
            executor.run_one(small_spec, OPTS, 3)
        collector.flush()

    def step_xml(server):
        records = sorted(server.query(tool="spr_flow"), key=lambda r: r.sequence)
        return [record.to_xml() for record in records]

    assert len(step_xml(direct)) > 32
    assert step_xml(direct) == step_xml(collected)


def test_two_worker_collection_matches_serial_per_run(small_spec):
    """Batched messages from two workers land the same run vectors and
    DRV series as a serial campaign (the batch wall time aside)."""
    jobs = campaign_jobs(small_spec, n=4, seed=11)
    servers = []
    for n_workers in (1, 2):
        server = MetricsServer()
        with MetricsCollector(server, cross_process=True) as collector:
            with FlowExecutor(n_workers=n_workers, cache=None,
                              collector=collector) as executor:
                executor.run_jobs(jobs)
            collector.flush()
        servers.append(server)
    serial, pooled = servers
    assert pooled.runs() == serial.runs()
    assert len(pooled) == len(serial)
    for run_id in serial.runs():
        expected = serial.run_vector(run_id)
        got = pooled.run_vector(run_id)
        expected.pop("exec.wall_time")
        got.pop("exec.wall_time")
        assert got == expected
        assert pooled.series(run_id, "droute.drv_trajectory") == \
            serial.series(run_id, "droute.drv_trajectory")


# ----------------------------------------------- instrumented executor runs
def test_serial_executor_reports_into_server(small_spec):
    server = MetricsServer()
    jobs = campaign_jobs(small_spec, n=3)
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, collector=collector) as executor:
            results = executor.run_jobs(jobs)
        collector.flush()
    assert len(server.runs()) == 3
    for job, result in zip(jobs, results):
        vec = server.run_vector(make_run_id(job.design, job.options, job.seed))
        assert vec["flow.area"] == pytest.approx(result.area)
        assert vec["signoff.wns"] == pytest.approx(result.wns)
        assert vec["option.utilization"] == pytest.approx(job.options.utilization)
        for event in EXECUTOR_EVENT_METRICS:
            assert event in vec
        assert vec["exec.attempts"] == 1.0
        assert vec["exec.failure"] == 0.0


def test_cache_hits_and_dedup_are_reported(small_spec):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, collector=collector) as executor:
            executor.run_jobs([FlowJob(small_spec, OPTS, 1)] * 2)  # run + dedup
            executor.run_jobs([FlowJob(small_spec, OPTS, 1)])      # memory hit
        collector.flush()
    run_id = make_run_id(small_spec, OPTS, 1)
    vec = server.run_vector(run_id)
    # last batch served from memory; flow metrics were re-reported for it
    assert vec["exec.cache_hit_memory"] == 1.0
    assert "flow.area" in vec
    dedup_records = server.query(metric="exec.dedup", run_id=run_id)
    assert any(r.value == 1.0 for r in dedup_records)


#: the per-job records of what a job ran
_JOB_ACCOUNTING = ("exec.stage.hit", "exec.stage.miss", "stage.runtime_proxy",
                   "sta.full", "sta.incremental.updates", "sta.incremental.nodes",
                   "sta.incremental.proxy_saved")


def _cold_job_accounting(spec, **executor_kwargs):
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None, collector=collector,
                          **executor_kwargs) as executor:
            result = executor.run_one(spec, OPTS, 11)
        collector.flush()
    vec = server.run_vector(make_run_id(spec, OPTS, 11))
    return result, {name: vec[name] for name in _JOB_ACCOUNTING}


def test_job_accounting_does_not_depend_on_the_stage_cache(small_spec):
    """A cold job reports the stages and timing work it ran whether or
    not its executor caches stages."""
    result, plain = _cold_job_accounting(small_spec)
    _, staged = _cold_job_accounting(small_spec, stage_cache=True)
    assert plain == staged
    assert plain["exec.stage.hit"] == 0.0
    assert plain["exec.stage.miss"] == len(FULL_FLOW_STAGES)
    assert plain["stage.runtime_proxy"] == result.runtime_proxy
    assert plain["sta.full"] > 0
    assert plain["sta.incremental.updates"] > 0


def test_plain_executor_ignores_the_process_stage_cache(small_spec):
    """A stage-caching serial executor fills the process's stage cache;
    an executor built without one afterwards must not resume from it."""
    jobs = [FlowJob(small_spec, OPTS.with_(router_effort=e), 5) for e in (0.3, 0.6)]
    with FlowExecutor(n_workers=1, cache=None, stage_cache=True) as staged:
        staged.run_jobs(jobs)
    assert staged.stats.stage_hits > 0
    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, cache=None, collector=collector) as plain:
            plain.run_jobs(jobs)
        collector.flush()
    assert plain.stats.stage_hits == plain.stats.stage_misses == 0
    for job in jobs:
        vec = server.run_vector(make_run_id(job.design, job.options, job.seed))
        assert vec["exec.stage.hit"] == 0.0
        assert vec["exec.stage.miss"] == len(FULL_FLOW_STAGES)


def test_failed_job_emits_failure_event(small_spec):
    from tests.core.test_parallel import _crash_always

    server = MetricsServer()
    with MetricsCollector(server, cross_process=False) as collector:
        executor = FlowExecutor(n_workers=1, flow_fn=_crash_always,
                                max_retries=1, collector=collector)
        outcome = executor.run_one(small_spec, OPTS, 5)
        collector.flush()
    assert isinstance(outcome, FlowExecutionError)
    vec = server.run_vector(make_run_id(small_spec, OPTS, 5))
    assert vec["exec.failure"] == 1.0
    assert vec["exec.attempts"] == 2.0
    assert vec["exec.retries"] == 1.0
    assert "flow.area" not in vec  # no result, no step metrics


def test_pool_requires_cross_process_collector(small_spec):
    collector = MetricsCollector(MetricsServer(), cross_process=False).start()
    executor = FlowExecutor(n_workers=2, collector=collector)
    try:
        with pytest.raises(ValueError):
            executor.run_jobs([FlowJob(small_spec, OPTS, 1)])
    finally:
        executor.close()
        collector.stop()


# ------------------------------------------------------------- end to end
def test_collector_end_to_end_two_workers(small_spec):
    """Acceptance: an n_workers=2 campaign lands every job's step metrics
    plus executor events in one server, under unique run ids, with
    bit-identical QoR to serial, and the miner runs on the table."""
    jobs = campaign_jobs(small_spec, n=8)
    serial = FlowExecutor(n_workers=1, cache=None).run_jobs(jobs)

    server = MetricsServer()
    with MetricsCollector(server, cross_process=True) as collector:
        with FlowExecutor(n_workers=2, cache=None,
                          collector=collector) as executor:
            parallel = executor.run_jobs(jobs)
        collector.flush()

    assert parallel == serial  # bit-identical QoR
    run_ids = server.runs()
    assert len(run_ids) == len(jobs)  # unique ids, no worker collisions
    for job in jobs:
        vec = server.run_vector(make_run_id(job.design, job.options, job.seed))
        assert "flow.area" in vec and "synth.instances" in vec
        for event in EXECUTOR_EVENT_METRICS:
            assert event in vec
    rec = DataMiner(server, seed=0).recommend_options(
        "area", design=small_spec.name
    )
    assert np.isfinite(rec.predicted_objective)


def test_persistence_round_trip_through_collector(small_spec, tmp_path):
    path = tmp_path / "metrics.jsonl"
    server = MetricsServer(persist_path=str(path))
    jobs = campaign_jobs(small_spec, n=3)
    with MetricsCollector(server, cross_process=False) as collector:
        with FlowExecutor(n_workers=1, collector=collector) as executor:
            executor.run_jobs(jobs)
        collector.flush()
    run_ids, names, matrix = server.table()
    server.close()

    reloaded = MetricsServer(persist_path=str(path))
    run_ids2, names2, matrix2 = reloaded.table()
    assert run_ids2 == run_ids
    assert names2 == names
    np.testing.assert_array_equal(matrix2, matrix)
