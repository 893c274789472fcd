"""The sqlite metrics warehouse: ingest, retention, migration, CLI,
and full-history model training.

The acceptance scenario lives here: two *independent processes* each
run an instrumented flow campaign into one shared sqlite warehouse
under different campaign ids, and the mining/prediction consumers
(:class:`DataMiner`, the doomed-run predictors, the DSE surrogate)
then train over both campaigns from the single archive.
"""

import json
import math
import multiprocessing
import re
import sqlite3

import numpy as np
import pytest

from repro.bench.generators import design_profile
from repro.cli import main
from repro.core.doomed import MDPCardLearner, router_logs_from_store
from repro.core.doomed.card import StrategyCard
from repro.dse.surrogate import SurrogateProposer
from repro.eda.flow import FlowOptions
from repro.metrics import (
    DataMiner,
    InstrumentedFlow,
    JsonlStore,
    MetricRecord,
    MetricsServer,
    SqliteStore,
    Transmitter,
    open_store,
)
from repro.metrics.logparse import transmit_flow_log
from repro.metrics.store import stamp_campaign
from tests.metrics.test_store_parity import (
    METRICS,
    make_stream,
    records_indexes,
    with_legacy_indexes,
)


def _record(run_id, metric, value, seq, design="d", campaign=None):
    record = MetricRecord(design=design, run_id=run_id, tool="tool",
                         metric=metric, value=value, sequence=seq)
    return record if campaign is None else stamp_campaign(record, campaign)


# ------------------------------------------------------- acceptance fixture
def _campaign_worker(db_path, campaign, seeds):
    """One independent campaign process: instrumented flow runs landing
    straight in the shared sqlite warehouse."""
    from repro.eda.flow import FlowOptions
    from repro.eda.synthesis import DesignSpec
    from repro.metrics import InstrumentedFlow, MetricsServer, SqliteStore

    spec = DesignSpec(name="tiny", n_gates=120, n_flops=16, n_inputs=8,
                      n_outputs=8, depth=10, locality=0.8)
    rng = np.random.default_rng(seeds[0])
    with MetricsServer(store=SqliteStore(db_path), campaign=campaign) as server:
        flow = InstrumentedFlow(server)
        for seed in seeds:
            options = FlowOptions(
                target_clock_ghz=float(rng.uniform(0.6, 1.2)),
                utilization=float(rng.uniform(0.55, 0.9)),
                router_effort=float(rng.uniform(0.3, 1.0)),
                opt_guardband=float(rng.uniform(0, 60)),
            )
            flow.run(spec, options, seed=seed, run_id=f"{campaign}-run{seed}")


@pytest.fixture(scope="module")
def warehouse(tmp_path_factory):
    """One sqlite warehouse filled by two independent campaign
    processes (campaigns c1 and c2, five flow runs each)."""
    db = str(tmp_path_factory.mktemp("wh") / "wh.sqlite")
    SqliteStore(db).close()  # create the schema before the writers race
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_campaign_worker, args=(db, "c1", list(range(5)))),
        ctx.Process(target=_campaign_worker, args=(db, "c2", list(range(5, 10)))),
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    return db


# ----------------------------------------------------- acceptance: archive
def test_warehouse_holds_both_campaigns(warehouse):
    with SqliteStore(warehouse) as store:
        assert sorted(store.campaigns()) == ["c1", "c2"]
        assert len(store.runs()) == 10
        for campaign in ("c1", "c2"):
            runs = store.runs(campaign=campaign)
            assert len(runs) == 5
            assert all(r.startswith(campaign + "-") for r in runs)
            for record in store.query(campaign=campaign):
                assert record.attributes["campaign"] == campaign


def test_query_ordering_deterministic_across_handles(warehouse):
    a = SqliteStore(warehouse)
    b = SqliteStore(warehouse)
    assert a.runs() == sorted(a.runs()) == b.runs()
    first = [(r.run_id, r.metric, r.value, r.sequence) for r in a.query()]
    again = [(r.run_id, r.metric, r.value, r.sequence) for r in a.query()]
    other = [(r.run_id, r.metric, r.value, r.sequence) for r in b.query()]
    assert first == again == other
    a.close()
    b.close()


def test_miner_trains_across_campaigns(warehouse):
    """recommend_options needs >= 8 runs: neither 5-run campaign is
    enough alone, but the warehouse union is."""
    with MetricsServer(store=SqliteStore(warehouse)) as server:
        miner = DataMiner(server, seed=0)
        for campaign in ("c1", "c2"):
            with pytest.raises(ValueError):
                miner.recommend_options("area", campaign=campaign)
        rec = miner.recommend_options("area")
        assert rec.options
        assert np.isfinite(rec.predicted_objective)


def test_doomed_predictor_trains_across_campaigns(warehouse):
    with SqliteStore(warehouse) as store:
        logs = router_logs_from_store(store)
        assert len(logs) == 10
        assert all(log.drvs for log in logs)
        assert {log.domain for log in logs} == {"tiny"}
        assert len(router_logs_from_store(store, campaign="c1")) == 5
        assert len(router_logs_from_store(store, campaign="c2")) == 5
        card = MDPCardLearner().fit_from_store(store)
        assert isinstance(card, StrategyCard)
        assert card.visited.any()


def test_surrogate_trains_across_campaigns(warehouse):
    with SqliteStore(warehouse) as store:
        lone = SurrogateProposer(min_fit=8)
        assert lone.fit_from_store(store, campaign="c1") is False
        proposer = SurrogateProposer(min_fit=8)
        assert proposer.fit_from_store(store) is True
        assert proposer.ready
        assert proposer.fit_score is not None


# ------------------------------------------------------- sqlite specifics
def test_since_filter_anchors_on_ingest_order(tmp_path):
    with SqliteStore(str(tmp_path / "s.sqlite")) as store:
        store.ingest([_record("r1", "flow.area", 1.0, 0, campaign="c1"),
                      _record("r1", "flow.success", 1.0, 1, campaign="c1")])
        mark = store.ingest_count
        store.ingest([_record("r2", "flow.area", 2.0, 0, campaign="c2")])
        assert store.runs(since=mark) == ["r2"]
        assert store.runs(since=0) == ["r1", "r2"]
        assert [r.run_id for r in store.query(since=mark)] == ["r2"]


def test_batched_jsonl_ingest(tmp_path):
    jsonl = str(tmp_path / "in.jsonl")
    with JsonlStore(jsonl) as writer:
        for i in range(25):
            writer.ingest([_record(f"r{i % 5}", "flow.area", float(i), i)])
    with SqliteStore(str(tmp_path / "s.sqlite")) as store:
        report = store.receive_jsonl(jsonl, campaign="cX", batch_size=10)
        assert report.records == 25
        assert report.batches == 3
        assert store.runs(campaign="cX") == [f"r{i}" for i in range(5)]


def test_migration_zero_loss(tmp_path):
    """count + per-run-vector equality, with non-finite values and a
    torn tail line in the source."""
    jsonl = str(tmp_path / "legacy.jsonl")
    with JsonlStore(jsonl) as writer:
        rng = np.random.default_rng(5)
        for i in range(60):
            value = float(rng.normal()) if i % 9 else float("nan")
            writer.ingest([_record(f"r{i % 7}", "flow.area", value, i)])
            writer.ingest([_record(f"r{i % 7}", "signoff.wns", -float(i), 60 + i)])
    with open(jsonl, "a") as fh:
        fh.write('{"design": "d", "run_id"')  # a killed writer's torn line
    source = JsonlStore(jsonl)
    with SqliteStore(str(tmp_path / "wh.sqlite")) as store:
        report = store.receive_jsonl(jsonl, campaign="legacy")
        assert report.records == len(source)
        assert report.skipped_lines == 1
        assert report.null_values == source.null_values
        assert store.runs() == source.runs()
        for run_id in source.runs():
            assert store.run_vector(run_id) == source.run_vector(run_id)
        assert store.runs(campaign="legacy") == source.runs()
    source.close()


def test_compact_keeps_last_campaigns(tmp_path):
    with SqliteStore(str(tmp_path / "s.sqlite")) as store:
        seq = 0
        for campaign in ("old", "mid", "new"):
            for i in range(4):
                store.ingest([_record(f"{campaign}-r{i}", "flow.area",
                                      float(i), seq, campaign=campaign)])
                seq += 1
        store.ingest([_record("untagged-r", "flow.area", 9.0, seq)])
        removed = store.compact(keep_last_n_campaigns=2)
        assert removed == 4
        assert store.campaigns() == ["mid", "new"]
        assert store.runs(campaign="old") == []
        with pytest.raises(KeyError):
            store.run_vector("old-r0")
        # untagged records are never retention targets
        assert store.run_vector("untagged-r") == {"flow.area": 9.0}
        assert len(store.runs()) == 9


# ------------------------------------------------------- indexes
RECORDS_INDEXES = ["idx_records_campaign", "idx_records_design",
                   "idx_records_metric", "idx_records_run_metric"]


def _answers(store):
    """Every query-API answer of a store, in comparable form."""
    out = [store.runs(), store.campaigns()]
    half = store.ingest_count // 2
    for selection in ({"design": "alpha"}, {"campaign": "c1"},
                      {"since": half}):
        out.append(store.runs(**selection))
        run_ids, matrix = store.run_vectors_matrix(
            ["flow.area", "signoff.wns"], **selection)
        out.append((run_ids, matrix.tolist()))
        out.append(store.trajectories("droute.drv_trajectory", **selection))
    out.append([(r.run_id, r.metric, r.value, r.sequence)
                for r in store.query(since=half)])
    for run_id in store.runs():
        out.append(sorted(store.run_vector(run_id).items()))
        for metric in METRICS:
            out.append(store.series(run_id, metric))
            out.append([(r.run_id, r.metric, r.value, r.sequence)
                        for r in store.query(run_id=run_id, metric=metric)])
    run_ids, names, matrix = store.table()
    out.append((run_ids, names, matrix.tolist()))
    run_ids, matrix = store.run_vectors_matrix(["flow.area", "signoff.wns"])
    out.append((run_ids, matrix.tolist()))
    return out


def test_trajectory_reads_plan_on_the_run_metric_index(tmp_path):
    path = str(tmp_path / "plan.sqlite")
    with SqliteStore(path) as store:
        store.ingest(make_stream(3, n=400, non_finite=False))
        run_id = store.runs()[0]
        traced = []
        store._conn.set_trace_callback(traced.append)
        store.series(run_id, "droute.drv_trajectory")
        store.query(run_id=run_id, metric="droute.drv_trajectory")
        store._conn.set_trace_callback(None)
        assert len(traced) == 2
        for sql in traced:
            plan = " ".join(row[-1] for row in store._conn.execute(
                "EXPLAIN QUERY PLAN " + sql).fetchall())
            assert "idx_records_run_metric" in plan, (sql, plan)


def test_old_warehouse_gains_the_run_metric_index(tmp_path):
    stream = make_stream(4)
    fresh, old = str(tmp_path / "fresh.sqlite"), str(tmp_path / "old.sqlite")
    for path in (fresh, old):
        with SqliteStore(path) as store:
            store.ingest(stream)
    with_legacy_indexes(old)
    assert "idx_records_run" in records_indexes(old)
    with SqliteStore(old) as upgraded, SqliteStore(fresh) as current:
        assert records_indexes(old) == RECORDS_INDEXES
        assert _answers(upgraded) == _answers(current)
        # the upgraded archive keeps taking records, on the new index set
        more = make_stream(5, n=30)
        assert upgraded.ingest(more) == current.ingest(more)
        assert _answers(upgraded) == _answers(current)


RUNS_INDEXES = ["idx_runs_campaign", "idx_runs_design",
                "idx_runs_first_seen"]


def _selection_stream():
    """Four campaigns of six runs over two designs, each run a small
    flow vector plus a DRV trajectory."""
    records, sequence = [], 0
    for c in range(4):
        for r in range(6):
            design = ("alpha", "beta")[r % 2]
            run_id = f"c{c}-{design}-{r}"
            values = [("flow.area", 10.0 + r), ("signoff.wns", -0.1 * c)]
            values += [("droute.drv_trajectory", 500.0 - 90 * k)
                       for k in range(5)]
            for metric, value in values:
                records.append(_record(run_id, metric, value, sequence,
                                       design=design, campaign=f"c{c}"))
                sequence += 1
    return records


def _plans(store, read):
    """EXPLAIN QUERY PLAN of every statement ``read`` runs."""
    traced = []
    store._conn.set_trace_callback(traced.append)
    try:
        read()
    finally:
        store._conn.set_trace_callback(None)
    return [" | ".join(row[-1] for row in store._conn.execute(
        "EXPLAIN QUERY PLAN " + sql).fetchall()) for sql in traced]


def test_selection_reads_start_from_the_runs_indexes(tmp_path):
    """No design-, campaign- or since-scoped read walks ``records`` or
    ``vectors`` whole: each selects its runs first and reaches their
    rows by run id; a design or campaign selects on a ``runs`` index."""
    with SqliteStore(str(tmp_path / "plans.sqlite")) as store:
        store.ingest(_selection_stream())
        for selection in ({"design": "alpha"}, {"campaign": "c2"},
                          {"since": store.ingest_count // 2}):
            reads = {
                "runs": lambda: store.runs(**selection),
                "run_vectors_matrix": lambda: store.run_vectors_matrix(
                    ["flow.area", "signoff.wns"], **selection),
                "table": lambda: store.table(**selection),
                "trajectories": lambda: store.trajectories(
                    "droute.drv_trajectory", **selection),
                "query": lambda: store.query(**selection),
            }
            for name, read in reads.items():
                plans = _plans(store, read)
                assert plans, name
                for plan in plans:
                    assert "SCAN records" not in plan, (name, selection, plan)
                    assert "SCAN vectors" not in plan, (name, selection, plan)
                    if "since" not in selection and \
                            re.search(r"\b(SCAN|SEARCH) runs\b", plan):
                        assert re.search(
                            r"SEARCH runs USING (COVERING )?INDEX idx_runs_",
                            plan), (name, selection, plan)
                    if name == "query" and "since" in selection:
                        assert plan.startswith("SEARCH runs USING INDEX "
                                               "idx_runs_first_seen"), plan


def test_old_warehouse_gains_the_runs_indexes(tmp_path):
    """An archive written before ``runs`` was indexed opens, gains the
    indexes, and answers every read as before."""
    stream = make_stream(6)
    fresh, old = str(tmp_path / "fresh.sqlite"), str(tmp_path / "old.sqlite")
    for path in (fresh, old):
        with SqliteStore(path) as store:
            store.ingest(stream)
    conn = sqlite3.connect(old)
    with conn:
        conn.executescript("".join(f"DROP INDEX {name};"
                                   for name in RUNS_INDEXES))
    conn.close()
    assert records_indexes(old, "runs") == []
    with SqliteStore(old) as upgraded, SqliteStore(fresh) as current:
        assert records_indexes(old, "runs") == RUNS_INDEXES
        assert _answers(upgraded) == _answers(current)
        more = make_stream(7, n=30)
        assert upgraded.ingest(more) == current.ingest(more)
        assert _answers(upgraded) == _answers(current)


def test_open_store_sniffs_format(tmp_path):
    sqlite_path = str(tmp_path / "a.sqlite")
    SqliteStore(sqlite_path).close()
    store = open_store(sqlite_path)
    assert isinstance(store, SqliteStore)
    store.close()
    jsonl_path = str(tmp_path / "a.jsonl")
    with JsonlStore(jsonl_path) as writer:
        writer.ingest([_record("r", "flow.area", 1.0, 0)])
    store = open_store(jsonl_path)
    assert isinstance(store, JsonlStore)
    assert len(store) == 1
    store.close()
    fresh = open_store(str(tmp_path / "new.db"))
    assert isinstance(fresh, SqliteStore)
    fresh.close()


# --------------------------------------------------------- lifecycle/API
def test_stores_and_server_are_context_managers(tmp_path):
    with JsonlStore(str(tmp_path / "a.jsonl")) as store:
        store.ingest([_record("r", "flow.area", 1.0, 0)])
    with SqliteStore(str(tmp_path / "a.sqlite")) as store:
        store.ingest([_record("r", "flow.area", 1.0, 0)])
    with MetricsServer(store=SqliteStore(str(tmp_path / "a.sqlite"))) as server:
        assert server.runs() == ["r"]
    server.close()  # idempotent


def test_server_rejects_store_and_path_together(tmp_path):
    with pytest.raises(ValueError):
        MetricsServer(persist_path=str(tmp_path / "a.jsonl"),
                      store=SqliteStore(str(tmp_path / "a.sqlite")))


def test_server_campaign_stamps_records(tmp_path):
    with MetricsServer(store=SqliteStore(str(tmp_path / "a.sqlite")),
                       campaign="c9") as server:
        already = _record("r", "flow.success", 1.0, 1, campaign="keep")
        assert server.put([_record("r", "flow.area", 1.0, 0).to_xml(),
                           already.to_xml()]) == 2
        assert server.runs(campaign="c9") == ["r"]
        tagged = {r.metric: r.attributes["campaign"] for r in server.query()}
        assert tagged == {"flow.area": "c9", "flow.success": "keep"}


class _CountingStore(SqliteStore):
    """A warehouse that counts its ingest calls (one transaction each)."""

    def __init__(self, path):
        super().__init__(path)
        self.ingests = 0

    def ingest(self, records):
        self.ingests += 1
        return super().ingest(records)


def test_in_process_reporting_commits_one_transaction_per_flush(tmp_path):
    store = _CountingStore(str(tmp_path / "a.sqlite"))
    with MetricsServer(store=store) as server:
        result = InstrumentedFlow(server).run(design_profile("PHY"), FlowOptions(), seed=3)
        n = len(server.query(tool="spr_flow"))
        assert n > 32
        assert store.ingests == math.ceil(n / 32)
        store.ingests = 0
        assert transmit_flow_log(result.log_text(), server, "phy-log") <= 32
        assert store.ingests == 1


# ------------------------------------------------------------------- CLI
def _write_campaign_jsonl(path, n_runs, prefix="", offset=0.0):
    with JsonlStore(str(path)) as writer:
        for i in range(n_runs):
            run_id = f"{prefix}r{i}"
            writer.ingest([_record(run_id, "flow.area", 100.0 + offset + i, 2 * i)])
            writer.ingest([_record(run_id, "flow.success", 1.0, 2 * i + 1)])


def test_cli_ingest_summary_query_compact(tmp_path, capsys):
    db = str(tmp_path / "wh.sqlite")
    _write_campaign_jsonl(tmp_path / "a.jsonl", 3, prefix="a-")
    _write_campaign_jsonl(tmp_path / "b.jsonl", 2, prefix="b-", offset=50.0)
    assert main(["metrics", "ingest", "--db", db,
                 "--in", str(tmp_path / "a.jsonl"), "--campaign", "c1"]) == 0
    assert main(["metrics", "ingest", "--db", db,
                 "--in", str(tmp_path / "b.jsonl"), "--campaign", "c2"]) == 0
    capsys.readouterr()

    assert main(["metrics", "summary", "--in", db]) == 0
    out = capsys.readouterr().out
    assert "campaigns: c1, c2" in out
    assert "flow.area" in out

    assert main(["metrics", "summary", "--in", db, "--campaign", "c2"]) == 0
    out = capsys.readouterr().out
    assert "over 2 runs" in out

    assert main(["metrics", "query", "--in", db, "--campaign", "c1"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 3  # run-list mode: one line per run
    assert main(["metrics", "query", "--in", db, "--campaign", "c1",
                 "--metric", "flow.area"]) == 0
    out = capsys.readouterr().out
    assert "flow.area=" in out
    assert main(["metrics", "query", "--in", db,
                 "--campaign", "nope"]) == 1

    assert main(["metrics", "compact", "--db", db, "--keep-last", "1"]) == 0
    capsys.readouterr()
    with SqliteStore(db) as store:
        assert store.campaigns() == ["c2"]
        assert store.runs(campaign="c1") == []
        # maintenance ops are recorded in the warehouse itself
        assert any(r.startswith("warehouse-op-") for r in store.runs())


def test_cli_migrate_verifies_zero_loss(tmp_path, capsys):
    jsonl = tmp_path / "legacy.jsonl"
    _write_campaign_jsonl(jsonl, 4)
    db = str(tmp_path / "wh.sqlite")
    assert main(["metrics", "migrate", "--in", str(jsonl), "--db", db]) == 0
    out = capsys.readouterr().out
    assert "verified: 4 run vectors identical" in out
    source = JsonlStore(str(jsonl))
    with SqliteStore(db) as store:
        assert [r for r in store.runs() if not r.startswith("warehouse-op-")] \
            == source.runs()
        for run_id in source.runs():
            assert store.run_vector(run_id) == source.run_vector(run_id)
    source.close()


def test_cli_rejects_both_metrics_sinks(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["mab", "--metrics-out", str(tmp_path / "a.jsonl"),
              "--metrics-db", str(tmp_path / "a.sqlite")])
    assert exc.value.code == 2


def test_cli_summary_reads_both_formats(tmp_path, capsys):
    jsonl = tmp_path / "a.jsonl"
    _write_campaign_jsonl(jsonl, 2)
    assert main(["metrics", "summary", "--in", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "over 2 runs" in out
    db = str(tmp_path / "a.sqlite")
    with SqliteStore(db) as store:
        report = store.receive_jsonl(str(jsonl))
        assert report.records == 4
    assert main(["metrics", "summary", "--in", db]) == 0
    out = capsys.readouterr().out
    assert "over 2 runs" in out
