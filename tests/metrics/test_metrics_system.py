"""METRICS 2.0: schema, transmission, server, miner.

The feedback loop is the ``miner`` DSE strategy (``tests/dse/test_miner.py``).
"""

import numpy as np
import pytest

from repro.eda.flow import FlowOptions
from repro.metrics import (
    DataMiner,
    InstrumentedFlow,
    MetricRecord,
    MetricsServer,
    Transmitter,
    VOCABULARY,
    validate_metric_name,
)
from repro.metrics.wrappers import coverage


# ------------------------------------------------------------------ schema
def test_vocabulary_is_nonempty_and_documented():
    assert len(VOCABULARY) > 20
    for name, (unit, description) in VOCABULARY.items():
        assert unit and description
        validate_metric_name(name)


def test_unknown_metric_rejected():
    with pytest.raises(ValueError):
        validate_metric_name("bogus.metric")
    with pytest.raises(ValueError):
        validate_metric_name("no_dot")
    with pytest.raises(ValueError):
        MetricRecord("d", "r", "t", "bogus.metric", 1.0)


def test_record_xml_roundtrip():
    record = MetricRecord(
        design="pulpino", run_id="r1", tool="spr_flow",
        metric="flow.area", value=123.456, sequence=7,
        attributes={"corner": "tt"},
    )
    xml = record.to_xml()
    assert xml.startswith("<metric")
    back = MetricRecord.from_xml(xml)
    assert back == record


def test_bad_xml_rejected():
    with pytest.raises(ValueError):
        MetricRecord.from_xml("<notmetric/>")


# ------------------------------------------------------- transmitter/server
def test_transmitter_buffers_and_flushes():
    server = MetricsServer()
    tx = Transmitter(server, "d", "r1", "tool", buffer_size=100)
    tx.send("flow.area", 10.0)
    assert len(server) == 0  # still buffered
    tx.flush()
    assert len(server) == 1


def test_transmitter_autoflush_at_buffer_size():
    server = MetricsServer()
    tx = Transmitter(server, "d", "r1", "tool", buffer_size=2)
    tx.send("flow.area", 1.0)
    tx.send("flow.power" if "flow.power" in VOCABULARY else "flow.runtime", 2.0)
    assert len(server) == 2


def test_transmitter_context_manager():
    server = MetricsServer()
    with Transmitter(server, "d", "r2", "tool") as tx:
        tx.send_many({"flow.area": 1.0, "flow.runtime": 2.0})
    assert len(server) == 2


def test_transmitter_validates_at_send():
    server = MetricsServer()
    tx = Transmitter(server, "d", "r1", "tool")
    with pytest.raises(ValueError):
        tx.send("garbage.name", 1.0)


def test_server_queries():
    server = MetricsServer()
    with Transmitter(server, "da", "r1", "tool") as tx:
        tx.send("flow.area", 1.0)
    with Transmitter(server, "db", "r2", "tool") as tx:
        tx.send("flow.area", 2.0)
    assert server.runs() == ["r1", "r2"]
    assert server.runs(design="da") == ["r1"]
    assert len(server.query(metric="flow.area")) == 2
    assert server.query(design="db")[0].value == 2.0
    assert server.run_vector("r1") == {"flow.area": 1.0}
    with pytest.raises(KeyError):
        server.run_vector("nope")


def test_query_unknown_run_returns_empty():
    server = MetricsServer()
    with Transmitter(server, "d", "r1", "tool") as tx:
        tx.send("flow.area", 1.0)
    assert server.query(run_id="nope") == []  # not everything!
    assert server.query(run_id="nope", metric="flow.area") == []
    assert len(server.query(run_id="r1")) == 1


def test_runs_ordering_consistent_across_paths(tmp_path):
    """runs() is sorted no matter the arrival order, and a reloaded
    server agrees with the in-memory one."""
    path = tmp_path / "metrics.jsonl"
    server = MetricsServer(persist_path=str(path))
    for run_id in ("r3", "r1", "r2"):  # out-of-order arrival
        with Transmitter(server, "d", run_id, "tool") as tx:
            tx.send("flow.area", 1.0)
    assert server.runs() == ["r1", "r2", "r3"]
    reloaded = MetricsServer(persist_path=str(path))
    assert reloaded.runs() == server.runs()


def test_server_load_skips_torn_lines(tmp_path):
    path = tmp_path / "metrics.jsonl"
    server = MetricsServer(persist_path=str(path))
    with Transmitter(server, "d", "r1", "tool") as tx:
        tx.send("flow.area", 1.0)
    server.close()
    with open(path, "a") as fh:
        fh.write('{"design": "d", "ru')  # torn concurrent write
    reloaded = MetricsServer(persist_path=str(path))
    assert len(reloaded) == 1
    assert reloaded.skipped_lines == 1


def test_server_persists_nonfinite_as_strict_json_null(tmp_path):
    """inf/nan never reach the JSONL file as python-only tokens.

    ``json.dumps`` would happily emit ``Infinity`` — which no strict
    JSON reader accepts — so non-finite measurements persist as null
    and are ignored (counted) on reload.
    """
    import json
    import math

    path = tmp_path / "metrics.jsonl"
    server = MetricsServer(persist_path=str(path))
    with Transmitter(server, "d", "r1", "tool") as tx:
        tx.send("flow.area", 42.0)
        tx.send("signoff.wns", float("inf"))
        tx.send("signoff.tns", float("-inf"))
        tx.send("signoff.power", float("nan"))
    server.close()
    with open(path) as fh:
        lines = [line for line in fh if line.strip()]
    assert len(lines) == 4
    for line in lines:
        data = json.loads(line, parse_constant=lambda tok: pytest.fail(
            f"non-strict JSON token {tok!r} persisted"))
        assert data["value"] is None or math.isfinite(data["value"])
    reloaded = MetricsServer(persist_path=str(path))
    assert len(reloaded) == 1  # only the finite record survives
    assert reloaded.null_values == 3
    assert reloaded.run_vector("r1") == {"flow.area": 42.0}


def test_report_flow_metrics_drops_nonfinite(small_spec):
    """Sentinel timing values (inf hold_wns etc.) are never transmitted."""
    from repro.eda.flow import SPRFlow
    from repro.metrics.wrappers import make_run_id, report_flow_metrics

    result = SPRFlow().run(small_spec, FlowOptions(), seed=1)
    # poison the signoff log with the sentinels TimingReport uses for
    # "nothing to report" and make sure they stay out of the stream
    signoff = [log for log in result.logs if log.step == "signoff"][0]
    signoff.metrics["wns"] = float("inf")
    signoff.metrics["tns"] = float("nan")
    server = MetricsServer()
    with Transmitter(server, result.design,
                     make_run_id(small_spec, FlowOptions(), 1),
                     tool="spr_flow") as tx:
        report_flow_metrics(tx, result)
    vec = server.run_vector(server.runs()[0])
    assert "signoff.wns" not in vec
    assert "signoff.tns" not in vec
    assert "signoff.power" in vec  # finite neighbors still reported
    assert all(np.isfinite(v) for v in vec.values())


def test_server_last_report_wins():
    server = MetricsServer()
    with Transmitter(server, "d", "r1", "tool") as tx:
        tx.send("flow.area", 1.0)
        tx.send("flow.area", 5.0)
    assert server.run_vector("r1")["flow.area"] == 5.0


def test_server_persistence(tmp_path):
    path = tmp_path / "metrics.jsonl"
    server = MetricsServer(persist_path=str(path))
    with Transmitter(server, "d", "r1", "tool") as tx:
        tx.send("flow.area", 42.0)
    reloaded = MetricsServer(persist_path=str(path))
    assert len(reloaded) == 1
    assert reloaded.run_vector("r1")["flow.area"] == 42.0


def test_server_table_dense(small_spec):
    server = MetricsServer()
    flow = InstrumentedFlow(server)
    for seed in range(3):
        flow.run(small_spec, FlowOptions(), seed=seed)
    run_ids, names, matrix = server.table()
    assert matrix.shape == (3, len(names))
    assert np.isfinite(matrix).all()


# ------------------------------------------------------- instrumented flow
def test_instrumented_flow_reports_everything(small_spec):
    server = MetricsServer()
    result = InstrumentedFlow(server).run(small_spec, FlowOptions(), seed=1)
    assert result.area > 0
    vec = server.run_vector(server.runs()[0])
    for key in ("flow.area", "signoff.wns", "droute.final_drvs",
                "option.utilization", "flow.target_ghz"):
        assert key in vec
    assert vec["flow.area"] == pytest.approx(result.area)


def test_vocabulary_fully_covered_by_flow():
    assert coverage() == 1.0


# ------------------------------------------------------------------- miner
@pytest.fixture(scope="module")
def mined_server(small_spec):
    server = MetricsServer()
    flow = InstrumentedFlow(server)
    rng = np.random.default_rng(3)
    for i in range(10):
        options = FlowOptions(
            target_clock_ghz=float(rng.uniform(0.6, 1.2)),
            utilization=float(rng.uniform(0.55, 0.9)),
            opt_guardband=float(rng.uniform(0, 60)),
        )
        flow.run(small_spec, options, seed=i)
    return server


def test_miner_sensitivity(mined_server):
    sens = DataMiner(mined_server, seed=0).sensitivity("flow.area")
    assert sens
    assert all(0.0 <= v <= 1.0 for v in sens.values())
    # utilization changes the die, so it must register as sensitive for
    # *something*; at minimum the ordering is well-defined
    assert list(sens.values()) == sorted(sens.values(), reverse=True)


def test_miner_recommends_options(mined_server):
    rec = DataMiner(mined_server, seed=0).recommend_options("area")
    assert rec.options
    assert np.isfinite(rec.predicted_objective)
    assert -1.0 <= rec.model_r2 <= 1.0


def test_miner_prescribes_frequency(mined_server, small_netlist):
    stats = small_netlist.stats()
    features = {
        "synth.instances": stats["instances"],
        "synth.depth": stats["depth"],
        "synth.area": stats["area"],
    }
    ghz = DataMiner(mined_server, seed=0).prescribe_frequency(features)
    assert 0.05 < ghz < 10.0
    conservative = DataMiner(mined_server, seed=0).prescribe_frequency(features, quantile=0.1)
    aggressive = DataMiner(mined_server, seed=0).prescribe_frequency(features, quantile=0.9)
    assert conservative <= aggressive


def _pareto_archive(n_runs, failed):
    """``n_runs`` flow runs whose area rises with utilization, the one
    setting that varies; the runs at the ``failed`` indices fail."""
    server = MetricsServer()
    for i, util in enumerate(np.linspace(0.55, 0.85, n_runs)):
        with Transmitter(server, "alpha", f"alpha-{i}", tool="spr_flow") as tx:
            tx.send("option.utilization", float(util))
            tx.send("flow.target_ghz", 0.8)
            tx.send("flow.area", 100.0 + 50.0 * float(util))
            tx.send("signoff.wns", 0.0)
            tx.send("signoff.power", 1.0)
            tx.send("flow.success", float(i not in failed))
    return server


def test_miner_mines_pareto_over_its_successful_runs():
    """A ``pareto`` value is ``-inf`` on a failed run, so only the
    successful runs train it: an archive with failed flows still
    answers (at the low-area end), and one with fewer than eight
    successes says so."""
    rec = DataMiner(_pareto_archive(12, {3, 7, 11}), seed=0).recommend_options("pareto")
    assert np.isfinite(rec.predicted_objective)
    assert rec.options["option.utilization"] < 0.6
    with pytest.raises(ValueError, match="at least 8 runs with a finite 'pareto'"):
        DataMiner(_pareto_archive(12, {1, 3, 5, 7, 9}), seed=0).recommend_options("pareto")


def test_miner_needs_enough_runs(small_spec):
    server = MetricsServer()
    InstrumentedFlow(server).run(small_spec, FlowOptions(), seed=0)
    with pytest.raises(ValueError):
        DataMiner(server).recommend_options()
