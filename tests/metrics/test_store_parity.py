"""Backend parity: JsonlStore and SqliteStore answer identically.

Property-style suite: seeded random record streams (multiple designs,
campaigns, duplicate metrics, non-finite values) are fed to both
backends, and every query API — ``runs``/``query``/``run_vector``/
``series``/``trajectories``/``table``/``run_vectors_matrix``/
``campaigns`` — must answer the same, at every ``since=`` mark too.
The JSONL side is compared in its *reloaded* form (write + reload),
since that is the persisted contract the warehouse must match:
non-finite values normalize away on both paths.

Also covered: torn-line tolerance (JSONL) vs corrupt-row tolerance
(sqlite), and concurrent multi-process writers landing whole records
in both formats.
"""

import json
import math
import multiprocessing
import sqlite3

import numpy as np
import pytest

from repro.bench.corpus import RouterLog
from repro.core.doomed import router_logs_from_store
from repro.core.doomed.warehouse import TRAJECTORY_METRIC
from repro.eda.routing import SUCCESS_DRV_THRESHOLD
from repro.metrics import JsonlStore, MetricRecord, MetricsServer, SqliteStore
from repro.metrics.store import stamp_campaign

DESIGNS = ("alpha", "beta")
CAMPAIGNS = ("c1", "c2", None)
TOOLS = ("spr_flow", "flow_executor")
METRICS = ("flow.area", "flow.success", "signoff.wns", "place.hpwl",
           "droute.drv_trajectory")


def make_stream(seed, n=120, non_finite=True):
    """A deterministic pseudo-random record stream."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        design = DESIGNS[int(rng.integers(len(DESIGNS)))]
        campaign = CAMPAIGNS[int(rng.integers(len(CAMPAIGNS)))]
        value = float(rng.normal(100.0, 30.0))
        if non_finite and rng.random() < 0.08:
            value = float(rng.choice([math.inf, -math.inf, math.nan]))
        record = MetricRecord(
            design=design,
            run_id=f"{design}-run{int(rng.integers(6))}",
            tool=TOOLS[int(rng.integers(len(TOOLS)))],
            metric=METRICS[int(rng.integers(len(METRICS)))],
            value=value,
            sequence=i,
        )
        if campaign is not None:
            record = stamp_campaign(record, campaign)
        records.append(record)
    return records


def with_legacy_indexes(path):
    """Give a closed warehouse the ``records`` index set written before
    the run+metric index: a run-only index in its place."""
    conn = sqlite3.connect(path)
    with conn:
        conn.executescript("DROP INDEX idx_records_run_metric; "
                           "CREATE INDEX idx_records_run ON records(run_id);")
    conn.close()


def records_indexes(path, table="records"):
    """Names of the explicit indexes on a warehouse's ``records`` (or
    another ``table``)."""
    conn = sqlite3.connect(path)
    rows = conn.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index' "
        "AND tbl_name = ? AND sql IS NOT NULL ORDER BY name",
        (table,)).fetchall()
    conn.close()
    return [row[0] for row in rows]


@pytest.fixture(params=[0, 1, 2, "legacy-index"])
def backends(request, tmp_path):
    """(reloaded JsonlStore, SqliteStore) fed the same stream.  In the
    "legacy-index" case the SqliteStore opens a warehouse created with
    the older index set (which opening upgrades) and takes stream 0."""
    legacy = request.param == "legacy-index"
    stream = make_stream(0 if legacy else request.param)
    writer = JsonlStore(str(tmp_path / "stream.jsonl"))
    for record in stream:
        writer.ingest([record])
    writer.close()
    jsonl = JsonlStore(str(tmp_path / "stream.jsonl"))
    sqlite_path = str(tmp_path / "stream.sqlite")
    if legacy:
        SqliteStore(sqlite_path).close()
        with_legacy_indexes(sqlite_path)
    sqlite = SqliteStore(sqlite_path)
    sqlite.ingest(stream)
    yield jsonl, sqlite
    jsonl.close()
    sqlite.close()


def as_tuples(records):
    # attributes encode to a canonical string so tuples stay orderable
    return [(r.design, r.run_id, r.tool, r.metric, r.value, r.sequence,
             json.dumps(r.attributes, sort_keys=True)) for r in records]


# ------------------------------------------------------------------ parity
def test_runs_parity(backends):
    jsonl, sqlite = backends
    assert jsonl.runs() == sqlite.runs()
    for design in DESIGNS:
        assert jsonl.runs(design) == sqlite.runs(design)
    for campaign in ("c1", "c2"):
        assert jsonl.runs(campaign=campaign) == sqlite.runs(campaign=campaign)
        for design in DESIGNS:
            assert jsonl.runs(design, campaign=campaign) == \
                sqlite.runs(design, campaign=campaign)


def test_runs_are_sorted_and_repeatable(backends):
    jsonl, sqlite = backends
    for store in backends:
        assert store.runs() == sorted(store.runs())
        assert store.runs() == store.runs()  # deterministic re-query


def test_query_parity(backends):
    jsonl, sqlite = backends
    assert as_tuples(jsonl.query()) == as_tuples(sqlite.query())
    for design in DESIGNS:
        assert as_tuples(jsonl.query(design=design)) == \
            as_tuples(sqlite.query(design=design))
    for metric in METRICS:
        assert as_tuples(jsonl.query(metric=metric)) == \
            as_tuples(sqlite.query(metric=metric))
    for tool in TOOLS:
        assert as_tuples(jsonl.query(tool=tool)) == \
            as_tuples(sqlite.query(tool=tool))
    for campaign in ("c1", "c2"):
        assert as_tuples(jsonl.query(campaign=campaign)) == \
            as_tuples(sqlite.query(campaign=campaign))
    for run_id in jsonl.runs():
        assert as_tuples(jsonl.query(run_id=run_id)) == \
            as_tuples(sqlite.query(run_id=run_id))
    assert jsonl.query(run_id="no-such-run") == []
    assert sqlite.query(run_id="no-such-run") == []


def test_run_vector_and_series_parity(backends):
    jsonl, sqlite = backends
    for run_id in jsonl.runs():
        assert jsonl.run_vector(run_id) == sqlite.run_vector(run_id)
        for metric in METRICS:
            assert jsonl.series(run_id, metric) == sqlite.series(run_id, metric)
    for store in backends:
        with pytest.raises(KeyError):
            store.run_vector("no-such-run")


def test_table_parity(backends):
    jsonl, sqlite = backends
    for design in (None,) + DESIGNS:
        j_runs, j_names, j_matrix = jsonl.table(design)
        s_runs, s_names, s_matrix = sqlite.table(design)
        assert j_runs == s_runs
        assert j_names == s_names
        assert np.array_equal(j_matrix, s_matrix)


def test_run_vectors_matrix_parity(backends):
    jsonl, sqlite = backends
    # a repeated metric fills each of its columns
    for basis in (["flow.area", "signoff.wns"],
                  ["signoff.wns", "flow.area", "signoff.wns"]):
        for design in (None,) + DESIGNS:
            j_runs, j_matrix = jsonl.run_vectors_matrix(basis, design=design)
            s_runs, s_matrix = sqlite.run_vectors_matrix(basis, design=design)
            assert j_runs == s_runs
            assert j_runs
            assert j_matrix.tobytes() == s_matrix.tobytes()
    for store in backends:
        with pytest.raises(ValueError):
            store.run_vectors_matrix([])


def test_since_parity_at_every_mark(backends):
    """``since=n`` selects the runs first stored after the first ``n``
    records, on both backends, at every mark of the stream."""
    jsonl, sqlite = backends
    assert jsonl.ingest_count == sqlite.ingest_count
    for mark in range(jsonl.ingest_count + 2):
        assert jsonl.runs(since=mark) == sqlite.runs(since=mark), mark
        assert as_tuples(jsonl.query(since=mark)) == \
            as_tuples(sqlite.query(since=mark)), mark


def per_run_trajectories(store, metric, **selection):
    """A trajectory corpus read the per-run way: each selected run's
    ``series`` and its first record of the metric."""
    out = []
    for run_id in store.runs(**selection):
        values = store.series(run_id, metric)
        if values:
            first = store.query(run_id=run_id, metric=metric)[0]
            out.append((run_id, first.design, values))
    return out


def per_run_router_logs(store, **selection):
    """``router_logs_from_store`` as three reads per run."""
    logs = []
    for run_id in store.runs(**selection):
        drvs = [int(v) for v in store.series(run_id, TRAJECTORY_METRIC)]
        if not drvs:
            continue
        vector = store.run_vector(run_id)
        final = vector.get("droute.final_drvs", drvs[-1])
        records = store.query(run_id=run_id, metric=TRAJECTORY_METRIC)
        logs.append(RouterLog(
            drvs=drvs, success=final < SUCCESS_DRV_THRESHOLD,
            domain=records[0].design,
            difficulty=float(vector.get("option.router_effort", 0.0))))
    return logs


def selections(store):
    half = store.ingest_count // 2
    return ([{}] + [{"design": d} for d in DESIGNS]
            + [{"campaign": c} for c in ("c1", "c2")]
            + [{"since": half}, {"design": DESIGNS[0], "since": half}])


def test_trajectories_parity(backends):
    jsonl, sqlite = backends
    read = 0
    for metric in (TRAJECTORY_METRIC, "flow.area"):
        for selection in selections(jsonl):
            expected = per_run_trajectories(jsonl, metric, **selection)
            read += len(expected)
            for store in backends:
                got = store.trajectories(metric, **selection)
                assert [tuple(t) for t in got] == expected, selection
    assert read
    for selection in selections(jsonl):
        expected = per_run_router_logs(jsonl, **selection)
        for store in backends:
            assert router_logs_from_store(store, **selection) == expected


def trajectory_archive():
    """Runs of two designs in two campaigns, covering what a trajectory
    read must keep: reports out of sequence order and tied on it, a run
    with no trajectory, a run filed under one design whose trajectory
    is reported under two others (the first in ingest order is not the
    first in sequence order), and a non-finite report."""
    def rec(run_id, design, metric, value, sequence, campaign):
        return stamp_campaign(MetricRecord(
            design=design, run_id=run_id, tool="spr_flow", metric=metric,
            value=float(value), sequence=sequence), campaign)

    first = [
        rec("a1", "alpha", "option.router_effort", 0.7, 0, "c1"),
        rec("a1", "alpha", TRAJECTORY_METRIC, 900, 1, "c1"),
        rec("a1", "alpha", TRAJECTORY_METRIC, 40, 3, "c1"),
        rec("a1", "alpha", TRAJECTORY_METRIC, 300, 2, "c1"),
        rec("a1", "alpha", TRAJECTORY_METRIC, 250, 2, "c1"),
        rec("a1", "alpha", "droute.final_drvs", 450, 4, "c1"),
        rec("a2", "alpha", "flow.area", 12.0, 0, "c1"),
    ]
    second = [
        rec("m1", "alpha", "flow.area", 3.0, 0, "c2"),
        rec("b1", "beta", TRAJECTORY_METRIC, 80, 0, "c2"),
        rec("m1", "beta", TRAJECTORY_METRIC, 4000, 2, "c2"),
        rec("m1", "gamma", TRAJECTORY_METRIC, 5000, 1, "c2"),
        rec("b1", "beta", TRAJECTORY_METRIC, math.nan, 1, "c2"),
        rec("b1", "beta", TRAJECTORY_METRIC, 3, 2, "c2"),
    ]
    return first, second


def test_trajectories_keep_series_order_and_first_design(tmp_path):
    first, second = trajectory_archive()
    stores = both_backends(tmp_path, first + second, "traj")
    mark = len(first)
    expected = {
        "a1": ("alpha", [900.0, 300.0, 250.0, 40.0]),
        "b1": ("beta", [80.0, 3.0]),
        "m1": ("beta", [5000.0, 4000.0]),
    }
    cases = [({}, ["a1", "b1", "m1"]), ({"design": "alpha"}, ["a1", "m1"]),
             ({"design": "beta"}, ["b1"]), ({"campaign": "c1"}, ["a1"]),
             ({"since": mark}, ["b1", "m1"]),
             ({"design": "alpha", "since": mark}, ["m1"])]
    for store in stores + tuple(MetricsServer(store=s) for s in stores):
        assert store.runs(design="alpha") == ["a1", "a2", "m1"]
        for selection, run_ids in cases:
            got = store.trajectories(TRAJECTORY_METRIC, **selection)
            assert got == [(r, *expected[r]) for r in run_ids], selection
            assert [tuple(t) for t in got] == per_run_trajectories(
                store, TRAJECTORY_METRIC, **selection)
            assert router_logs_from_store(store, **selection) == \
                per_run_router_logs(store, **selection)
        logs = router_logs_from_store(store)
        assert [(log.drvs, log.success, log.domain, log.difficulty)
                for log in logs] == [([900, 300, 250, 40], False, "alpha", 0.7),
                                     ([80, 3], True, "beta", 0.0),
                                     ([5000, 4000], False, "beta", 0.0)]
        assert store.trajectories(TRAJECTORY_METRIC, campaign="none") == []
    for store in stores:
        store.close()


def test_campaigns_parity(backends):
    jsonl, sqlite = backends
    assert jsonl.campaigns() == sqlite.campaigns()


def test_non_finite_normalization_counts_match(backends):
    jsonl, sqlite = backends
    assert jsonl.null_values == sqlite.null_values
    assert jsonl.null_values > 0  # the stream does contain non-finite values
    assert len(jsonl) == len(sqlite)


def test_len_parity_excludes_non_finite(backends):
    jsonl, sqlite = backends
    assert len(jsonl) == len(sqlite) <= 120
    assert len(jsonl) + jsonl.null_values == 120


# ------------------------------------------------- campaign archives
def campaign_archive(with_other_runs=True):
    """Ten flow runs of design alpha, as a collecting campaign files
    them (flow records plus executor events), and, with
    ``with_other_runs``, the two other runs a campaign files under the
    same design: its ``dse-explorer-1`` summary and a job that failed
    before reporting any flow metric."""
    from repro.metrics.wrappers import OPTION_METRICS

    rng = np.random.default_rng(3)
    records = []

    def emit(run_id, tool, values):
        for sequence, (metric, value) in enumerate(values):
            records.append(stamp_campaign(MetricRecord(
                design="alpha", run_id=run_id, tool=tool, metric=metric,
                value=float(value), sequence=sequence), "c1"))

    for i in range(10):
        options = rng.uniform(0.2, 0.9, size=len(OPTION_METRICS))
        emit(f"alpha-f{i}", "spr_flow",
             [(name, value) for (name, _), value in zip(OPTION_METRICS, options)]
             + [("flow.area", 100.0 + 50.0 * options[1] + rng.normal()),
                ("flow.success", float(i % 3 != 0))])
        emit(f"alpha-f{i}", "flow_executor",
             [("exec.attempts", 1.0), ("exec.failure", 0.0)])
    if with_other_runs:
        emit("alpha-failed", "flow_executor",
             [("exec.attempts", 2.0), ("exec.failure", 1.0)])
        emit("dse-explorer-1", "dse",
             [("dse.runs", 11.0), ("dse.failed", 1.0), ("dse.best_score", 2.5)])
    return records


def both_backends(tmp_path, records, name):
    writer = JsonlStore(str(tmp_path / f"{name}.jsonl"))
    for record in records:
        writer.ingest([record])
    writer.close()
    sqlite = SqliteStore(str(tmp_path / f"{name}.sqlite"))
    sqlite.ingest(records)
    return JsonlStore(str(tmp_path / f"{name}.jsonl")), sqlite


def test_miner_reads_the_flow_runs_of_a_campaign_archive(tmp_path):
    """The summary and failed-job runs share no metric with a flow run,
    so the dense table over every run has no columns; the miner mines
    the flow runs alone, on both backends, as if the others were not
    there."""
    from repro.metrics import DataMiner

    stores = both_backends(tmp_path, campaign_archive(), "archive")
    flows_only = both_backends(tmp_path, campaign_archive(False), "flows")
    expected = None
    for store in stores + flows_only:
        answers = []
        for campaign in (None, "c1"):
            miner = DataMiner(store, seed=0)
            advice = miner.recommend_options(design="alpha", campaign=campaign)
            answers.append((sorted(advice.options.items()),
                            advice.predicted_objective, advice.model_r2,
                            miner.sensitivity(design="alpha",
                                              campaign=campaign)))
        expected = answers if expected is None else expected
        assert answers == expected
    for store in stores:
        run_ids, names, matrix = store.table("alpha")
        assert "dse-explorer-1" in run_ids and names == []  # density rule kept
        assert matrix.shape == (12, 0)
    for store in stores + flows_only:
        store.close()


# ------------------------------------------------------------- corruption
def test_jsonl_torn_line_vs_sqlite_corrupt_row(tmp_path):
    stream = make_stream(7, n=40, non_finite=False)
    jsonl_path = tmp_path / "t.jsonl"
    writer = JsonlStore(str(jsonl_path))
    for record in stream:
        writer.ingest([record])
    writer.close()
    # tear the file: a partial line a killed writer would leave
    with open(jsonl_path, "a") as fh:
        fh.write('{"design": "alpha", "run_id": "alpha-ru')
    jsonl = JsonlStore(str(jsonl_path))
    assert jsonl.skipped_lines == 1

    sqlite = SqliteStore(str(tmp_path / "t.sqlite"))
    sqlite.ingest(stream)
    # corrupt one row the way a foreign writer could: unparseable
    # attributes JSON
    with sqlite3.connect(str(tmp_path / "t.sqlite")) as conn:
        conn.execute(
            "UPDATE records SET attributes='{torn' "
            "WHERE seq_no = (SELECT MAX(seq_no) FROM records)")
    rows = sqlite.query()
    assert sqlite.skipped_lines == 1
    # the surviving rows still agree with the JSONL reload minus the
    # record whose row was corrupted
    assert as_tuples(jsonl.query())[:-1] == as_tuples(rows)
    jsonl.close()
    sqlite.close()


# ------------------------------------------------------ concurrent writers
def _write_jsonl_worker(path, seed):
    store = JsonlStore(path)
    for record in make_stream(seed, n=30, non_finite=False):
        store.ingest([record])
    store.close()


def _write_sqlite_worker(path, seed):
    store = SqliteStore(path)
    store.ingest(make_stream(seed, n=30, non_finite=False))
    store.close()


@pytest.mark.parametrize("kind", ["jsonl", "sqlite"])
def test_concurrent_multiprocess_writers(tmp_path, kind):
    path = str(tmp_path / ("w.jsonl" if kind == "jsonl" else "w.sqlite"))
    worker = _write_jsonl_worker if kind == "jsonl" else _write_sqlite_worker
    if kind == "sqlite":
        SqliteStore(path).close()  # create the schema before the race
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=worker, args=(path, seed))
             for seed in (11, 22, 33)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    store = JsonlStore(path) if kind == "jsonl" else SqliteStore(path)
    assert store.skipped_lines == 0  # whole records only, never torn
    assert len(store) == 90
    # order across writers is arbitrary; content must be the union
    expected = sorted(
        as_tuples(make_stream(11, n=30, non_finite=False))
        + as_tuples(make_stream(22, n=30, non_finite=False))
        + as_tuples(make_stream(33, n=30, non_finite=False)))
    assert sorted(as_tuples(store.query())) == expected
    store.close()


def test_concurrent_backends_agree(tmp_path):
    """The same three writer processes produce stores that answer every
    per-run query identically across backends."""
    jsonl_path = str(tmp_path / "w.jsonl")
    sqlite_path = str(tmp_path / "w.sqlite")
    SqliteStore(sqlite_path).close()
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_write_jsonl_worker, args=(jsonl_path, s))
             for s in (11, 22)]
    procs += [ctx.Process(target=_write_sqlite_worker, args=(sqlite_path, s))
              for s in (11, 22)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    jsonl = JsonlStore(jsonl_path)
    sqlite = SqliteStore(sqlite_path)
    assert jsonl.runs() == sqlite.runs()
    for run_id in jsonl.runs():
        assert jsonl.run_vector(run_id) == sqlite.run_vector(run_id)
    jsonl.close()
    sqlite.close()
