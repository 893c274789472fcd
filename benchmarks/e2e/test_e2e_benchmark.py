"""Self-test of the end-to-end benchmark (``--smoke`` sizes).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _smoke(workload, trace, trace_out=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--smoke", "--trace", str(trace)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """``{(workload, trace): (result, chrome trace path or None)}``."""
    out = {}
    for workload in WORKLOAD_NAMES:
        out[workload, 0] = (_smoke(workload, 0), None)
        path = tmp_path_factory.mktemp("trace") / f"{workload}.json"
        out[workload, 1] = (_smoke(workload, 1, path), path)
    return out


def test_emitted_names_are_declared(smoke_runs):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOAD_NAMES)
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for (workload, trace), (result, _) in smoke_runs.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == set(declared[trace]), (workload, trace)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name), name
            assert metric["unit"] == declared[trace][name]
            assert isinstance(metric["value"], float)


def test_self_time_on_a_synthetic_span_tree():
    clock = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(clock)))
    tracer.begin("root")   # t=0
    tracer.begin("child")  # t=1
    tracer.begin("grand")  # t=2
    tracer.end()           # t=3: grand 1
    tracer.end()           # t=4: child 3, self 2
    tracer.begin("child")  # t=5
    tracer.end()           # t=6: child 1
    tracer.end()           # t=7: root 7, self 7 - 3 - 1
    by_name = {}
    for name, start, end, self_s, parent, *_ in tracer.spans:
        by_name.setdefault(name, []).append((end - start, self_s, parent))
    assert by_name["grand"] == [(1.0, 1.0, 1)]
    assert by_name["child"] == [(3.0, 2.0, 0), (1.0, 1.0, 0)]
    assert by_name["root"] == [(7.0, 3.0, -1)]
    totals = tracing.aggregate([(0, tracer.spans)])
    assert totals["child"] == [2, 4.0, 3.0]


def test_reference_time_arithmetic():
    import hostspeed
    from run import Run, end_to_end, hd_quantile
    from workloads import Op, Step

    ref = hostspeed.REFERENCE_S
    run = Run()
    run.start, run.end = 0.0, 10.0
    # the probe before the first op ran at half the reference speed, the
    # one between the two ops at full speed: scales 2/3 and 1
    run.steps = [Step([Op(1.0, 3.0, 4.0, probe_s=2 * ref, probe_wall_s=1.0),
                       Op(4.0, 5.0, 4.0, probe_s=ref, probe_wall_s=0.5)], "k", None)]
    reference = end_to_end(run, setup_s=1.0, rss_mb=1.0)
    # the median of two ops is their mean: (2 s x 2/3 + 1 s x 1) / 2
    assert reference["op_ms_p50"] == pytest.approx(7000.0 / 6)
    # (3 - 0 - 1) x 2/3 + (5 - 3 - 0.5) x 1 + (10 - 5) x 1 reference seconds
    assert reference["ops_per_s"] == pytest.approx(2 / (4 / 3 + 6.5))
    assert reference["sim_units_per_s"] == pytest.approx(8 / (4 / 3 + 6.5))
    host = end_to_end(run, setup_s=1.0, rss_mb=1.0, reference=False)
    assert host["ops_per_s"] == pytest.approx(2 / 8.5)
    assert hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == pytest.approx(3.0)
    assert hd_quantile([7.0], 0.9) == 7.0


def test_traced_flows_equal_untraced_flows():
    from repro.bench.generators import design_profile
    from repro.eda.flow import FlowOptions, SPRFlow
    from workloads import DESIGNS

    specs = [design_profile(d) for d in DESIGNS]
    untraced = [SPRFlow().run(spec, FlowOptions(), 7) for spec in specs]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        tracer.enable(True)
        traced = [SPRFlow().run(spec, FlowOptions(), 7) for spec in specs]
    finally:
        tracing.uninstall(undo)
    assert traced == untraced
    names = {s[0] for s in tracer.spans}
    assert {f"stage.{s}" for s in tracing.STAGES} <= names
    assert "kernel.quadratic_place" in names


def test_spans_cover_each_process(smoke_runs):
    for workload in WORKLOAD_NAMES:
        _, path = smoke_runs[workload, 1]
        with open(path) as fh:
            events = json.load(fh)["traceEvents"]
        total, covered = {}, {}
        for event in events:
            if event["name"] in tracing.ROOT_SPANS:
                pid = event["pid"]
                total[pid] = total.get(pid, 0.0) + event["dur"]
                covered[pid] = (covered.get(pid, 0.0) + event["dur"]
                                - event["args"]["self_ms"] * 1e3)
        assert total, workload
        for pid in total:
            assert covered[pid] / total[pid] >= 0.9, (workload, pid)
