"""End-to-end benchmark: campaign workloads, end-to-end metrics and a
traced per-stage and per-kernel breakdown.

Usage (from the repository root)::

    python benchmarks/e2e/run.py --seed 1                  # every workload
    python benchmarks/e2e/run.py --workload flow-cold --seed 1 --seconds 18 --trace 0
    python benchmarks/e2e/run.py --workload flow-cold --seed 1 --trace \\
        --trace-out trace.json                             # per-layer metrics
    python benchmarks/e2e/run.py --smoke                   # ~10 ops per workload
    python benchmarks/e2e/run.py --freeze                  # rewrite golden.json

Each workload runs in fresh subprocesses: ``SETUP_TRIALS - 1`` that only
set up and exit, then one that sets up, measures for ``--seconds`` and
checks every output against ``golden.json``.  ``setup_s`` is the median
set-up time of all of them, from subprocess start to the first timed op.
Without ``--trace`` the run probes the host's speed before every op and
prints every end-to-end metric, its timings scaled to reference time
(``hostspeed.py``); with it, the wrappers of ``tracing.py`` are
installed, every block runs traced and then untraced, and the run prints
every per-layer metric instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
WORK = ROOT / ".e2e_work"
sys.path[:0] = [str(HERE), str(SRC)]

WORKLOAD_NAMES = ("flow-cold", "sweep-prefix", "dse-campaign", "warehouse-read")
SETUP_TRIALS = 3
SETUP_PROBES = 3  # host-speed probes on each side of a set-up
SMOKE_OPS = 10
#: a run must exit within this many seconds, set-up trials included
RUN_DEADLINE_S = 175.0

END_TO_END = (
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p75", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_units_per_s", "proxy/s"),
    ("peak_rss_mb", "MB"),
)

REFREEZE_NOTE = (
    "Digests cover every input any --seed can draw. Regenerate with "
    "`python benchmarks/e2e/run.py --freeze`, only in a benchmark change: a "
    "change that moves bits re-freezes them in a separate change, after its "
    "QoR distributions were shown indistinguishable from the old kernel's."
)


def default_seconds() -> int:
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            return int(json.load(fh)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 18


# ---------------------------------------------------------------- child side


class Run:
    """What one measured window produced."""

    def __init__(self):
        self.steps = []
        self.start = self.end = 0.0  # perf_counter at window start and end
        self.traced = [0, 0.0]  # ops, wall of traced blocks
        self.pairs = []         # per block: (traced, untraced) op latencies
        self.deltas = {}        # workload counters over traced blocks

    @property
    def ops(self):
        return [op for step in self.steps for op in step.ops]


def measure(workload, rng, seconds, max_ops, tracer) -> Run:
    """Closed loop over the workload's blocks until ``seconds`` elapsed.
    The window ends with the block in progress, so every run holds whole
    blocks and sees the workload's mix in the same proportions; only
    ``max_ops`` (smoke runs) stops inside a block.  With a tracer, every
    block runs twice, traced and then untraced, so the overhead is
    measured on identical work."""
    run = Run()
    n_ops = 0
    run.start = time.perf_counter()
    deadline = run.start + seconds
    modes = (True, False) if tracer is not None else (False,)
    for block in workload.blocks(rng):
        run.pairs.append(([], []))
        for traced in modes:
            if tracer is not None:
                tracer.enable(traced)
            before = workload.counters()
            t0 = time.perf_counter()
            ops_before = n_ops
            latencies = run.pairs[-1][0 if traced else 1]
            workload.begin_block()
            for step in block:
                if traced:
                    tracer.set_trace(workload.trace_id(step))
                    tracer.begin(workload.root_span)
                try:
                    result = workload.run_step(step)
                finally:
                    if traced:
                        tracer.end()
                run.steps.append(result)
                latencies.extend(op.latency_s for op in result.ops)
                n_ops += len(result.ops)
                if n_ops >= max_ops:
                    break
            if traced:
                run.traced[0] += n_ops - ops_before
                run.traced[1] += time.perf_counter() - t0
                for name, value in workload.counters().items():
                    run.deltas[name] = run.deltas.get(name, 0.0) + value - before[name]
            if time.perf_counter() >= deadline or n_ops >= max_ops:
                if tracer is not None:
                    tracer.enable(False)
                run.end = time.perf_counter()
                return run


def environment():
    """What the digests depend on besides the code: the Python and numpy
    versions, the BLAS build, and the SIMD extensions numpy found on this
    CPU, standing in for the kernel OpenBLAS picks at run time, which can
    change how its dense solves sum (README, known defect 4)."""
    import numpy

    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("openblas configuration", f"{blas.get('name')} {blas.get('version')}"),
        "cpu": config["SIMD Extensions"]["found"],
    }


def verify(workload, steps):
    """Compare each step's digest with its golden; a mismatch fails every
    op of the step.  Returns the golden status."""
    goldens = {}
    if GOLDEN.exists():
        with open(GOLDEN) as fh:
            goldens = json.load(fh)
    here = environment()
    if goldens.get("environment") != here:
        print(f"golden: unverified (goldens were frozen under "
              f"{goldens.get('environment')}, this is {here})", file=sys.stderr)
        return "unverified"
    table = goldens.get(workload.name, {})
    for step in steps:
        if table.get(step.key) != workload.digest(step.output):
            print(f"golden: {workload.name} step {step.key} does not match",
                  file=sys.stderr)
            for op in step.ops:
                op.failed = True
    return "verified"


def peak_rss_mb() -> float:
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def hd_quantile(values, p) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the mean of every
    order statistic, weighted by how much of a Beta(p(n+1), (1-p)(n+1))
    distribution falls in its 1/n slice of [0, 1].  A workload's ops
    form clusters (one per design, plain and ingesting sessions), and a
    whole number of blocks puts a cluster edge exactly at some
    percentiles, where a plain sample quantile jumps between the two
    ops either side of the gap; this estimate moves smoothly."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    k = 64  # integration points per slice
    t = (np.arange(n * k) + 0.5) / (n * k)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_pdf - log_pdf.max()).reshape(n, k).sum(axis=1)
    return float(weights @ x / weights.sum())


def end_to_end(run, setup_s, rss_mb, reference=True):
    """Every end-to-end metric, its timings in reference time (see
    hostspeed) or, with ``reference`` false, in host time."""
    import hostspeed

    ops = run.ops
    scales = hostspeed.scales([op.probe_s for op in ops]) if reference else [1.0] * len(ops)
    latencies = [op.latency_s * 1e3 * scale for op, scale in zip(ops, scales)]
    wall = hostspeed.scaled_wall(ops, scales, run.start, run.end)
    return {
        "setup_s": setup_s,
        "op_ms_p50": hd_quantile(latencies, 0.5),
        # the tail percentile with at least ten ops beyond it in the
        # shortest runs (about 40 flows on flow-cold on a busy host)
        "op_ms_p75": hd_quantile(latencies, 0.75),
        "ops_per_s": len(ops) / wall,
        "sim_units_per_s": sum(op.sim_units for op in ops) / wall,
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, run, workload):
    """Every per-layer metric, normalised per traced op, plus the stage
    table and per-process span coverage for the report."""
    import tracing

    processes, counters = tracer.collect()
    totals = tracing.aggregate(processes)
    n = max(run.traced[0], 1)
    out = {}
    for span in tracing.SPANS:
        calls, _, self_s = totals.get(span, (0, 0.0, 0.0))
        out[f"{span}.calls"] = calls / n
        out[f"{span}.self_ms"] = self_s * 1e3 / n
    for stage in tracing.STAGES:
        out[f"stage.{stage}.proxy"] = counters.get(f"stage.{stage}.proxy", 0.0) / n
    probes = counters.get("stage_cache.hits", 0.0) + counters.get("stage_cache.misses", 0.0)
    out["stage_cache.hit_ratio"] = counters.get("stage_cache.hits", 0.0) / probes if probes else 0.0
    busy = totals.get("exec.job", (0, 0.0, 0.0))[1]
    out["exec.worker_busy_frac"] = (busy / (run.traced[1] * workload.n_workers)
                                    if workload.n_workers > 1 and run.traced[1] else 0.0)
    deltas = run.deltas
    out["exec.retries"] = deltas.get("retries", 0.0) / n
    out["exec.failures"] = deltas.get("failures", 0.0) / n
    out["exec.proxy_executed"] = deltas.get("proxy_executed", 0.0) / n
    out["dse.kill.killed"] = deltas.get("kills", 0.0) / n
    out["dse.kill.proxy_saved"] = deltas.get("kill_proxy_saved", 0.0) / n
    out["metrics.records"] = counters.get("metrics.records", 0.0) / n
    # traced against untraced ops/s, over the ops both copies of a block ran
    traced_s = untraced_s = 0.0
    for traced, untraced in run.pairs:
        m = min(len(traced), len(untraced))
        traced_s += sum(traced[:m])
        untraced_s += sum(untraced[:m])
    out["trace_overhead_frac"] = 1.0 - untraced_s / traced_s if traced_s else 0.0
    report = {
        "stage_table": tracing.stage_table(totals, counters),
        "coverage": {str(pid): share for pid, share in tracing.coverage(processes).items()},
    }
    return out, report, processes


def child_main(args) -> int:
    import numpy as np

    import hostspeed
    import tracing
    from workloads import WORKLOADS

    workdir = os.path.join(os.environ["E2E_WORKDIR"], f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer(dump_dir=os.path.join(workdir, "spans"))
            os.makedirs(tracer.dump_dir)
            tracing.install(tracer)
        workload = WORKLOADS[args.workload](workdir, probing=not args.trace)
        # set-up time, less the probes before it, scaled by the median
        # probe on both sides of it
        probed = time.monotonic()
        probes = [hostspeed.probe() for _ in range(SETUP_PROBES)]
        probed = time.monotonic() - probed
        workload.setup()
        setup_s = time.monotonic() - args.spawn_time - probed
        probes += [hostspeed.probe() for _ in range(SETUP_PROBES)]
        scale = hostspeed.REFERENCE_S / statistics.median(probes)
        out = {"setup_s": setup_s * scale, "setup_host_s": setup_s}
        try:
            if not args.setup_only:
                max_ops = SMOKE_OPS if args.smoke else float("inf")
                run = measure(workload, np.random.default_rng(args.seed),
                              args.seconds, max_ops, tracer)
                out["golden"] = verify(workload, run.steps)
        finally:
            workload.close()
        if not args.setup_only:
            ops = run.ops
            out["attempted"] = len(ops)
            out["failed"] = sum(op.failed for op in ops)
            if tracer is None:
                rss_mb = peak_rss_mb()
                out["metrics"] = end_to_end(run, out["setup_s"], rss_mb)
                out["host_metrics"] = end_to_end(run, setup_s, rss_mb, reference=False)
            else:
                layers, report, processes = per_layer(tracer, run, workload)
                out["layers"] = layers
                out.update(report)
                if args.trace_out:
                    tracing.chrome_trace(processes, args.trace_out)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------- parent side


def spawn_child(args, workload, setup_only, env, deadline):
    """Run one workload subprocess; its JSON line, or None on failure."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawn-time", repr(time.monotonic())]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.trace_out:
        trace_out = Path(args.trace_out)
        if not args.workload:  # one file per workload
            trace_out = trace_out.with_name(f"{trace_out.stem}.{workload}{trace_out.suffix}")
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"{workload}: timed out", file=sys.stderr)
        return None
    finally:
        try:  # reap anything the child left in its session
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def run_workload(args, workload, env):
    deadline = time.monotonic() + RUN_DEADLINE_S
    trials = 1 if args.smoke or args.trace else SETUP_TRIALS
    trials = [spawn_child(args, workload, True, env, deadline)
              for _ in range(trials - 1)]
    trials.append(spawn_child(args, workload, False, env, deadline))
    if None in trials:
        return None
    result = trials[-1]
    if not args.trace:
        result["metrics"]["setup_s"] = statistics.median(t["setup_s"] for t in trials)
        result["host_metrics"]["setup_s"] = statistics.median(
            t["setup_host_s"] for t in trials)
    return result


def print_report(workload, result, trace):
    failed_frac = result["failed"] / result["attempted"]
    print(f"== {workload}: {result['attempted']} ops, {result['failed']} failed "
          f"(failed_frac {failed_frac:.4f}), golden {result['golden']}")
    if not trace:
        print(f"  {'':<24} {'reference':>14} {'host':>14}")
        for name, unit in END_TO_END:
            print(f"  {name:<24} {result['metrics'][name]:>14.4f} "
                  f"{result['host_metrics'][name]:>14.4f} {unit}")
        return
    import tracing

    units = {name: unit for name, unit, _ in tracing.per_layer_catalog()}
    for name, value in result["layers"].items():
        if value:
            print(f"  {name:<40} {value:>14.4f} {units[name]}")
    if result["stage_table"]:
        print(f"  {'stage':<16} {'wall share':>10} {'proxy share':>12}")
        for stage, wall, proxy in result["stage_table"]:
            print(f"  {stage:<16} {wall:>10.1%} {proxy:>12.1%}")
    shares = ", ".join(f"{share:.1%}" for share in result["coverage"].values())
    print(f"  span coverage per process: {shares}")


def result_metrics(result, trace, prefix=""):
    if trace:
        import tracing

        units = {name: unit for name, unit, _ in tracing.per_layer_catalog()}
        values = result["layers"]
    else:
        units = dict(END_TO_END)
        values = result["metrics"]
    return {prefix + name: {"value": values[name], "unit": units[name]} for name in units}


def freeze() -> int:
    import tempfile

    from workloads import WORKLOADS

    goldens = {"environment": environment(), "note": REFREEZE_NOTE}
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        for name in WORKLOAD_NAMES:
            t0 = time.perf_counter()
            goldens[name] = WORKLOADS[name](workdir).freeze()
            print(f"{name}: {len(goldens[name])} digests "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    with open(GOLDEN, "w") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1, help="workload input seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced run")
    parser.add_argument("--trace-out", default=None,
                        help="with --trace: write the spans as Chrome trace-event JSON")
    parser.add_argument("--smoke", action="store_true",
                        help=f"stop each workload after {SMOKE_OPS} ops, one set-up")
    parser.add_argument("--freeze", action="store_true",
                        help="recompute every golden digest into golden.json")
    parser.add_argument("--details", default=None,
                        help="write every workload's full result, host-time "
                             "metrics included, as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawn-time", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    # one BLAS thread in every process, set before numpy loads: flow
    # results depend on the OpenBLAS thread count (README, known defect
    # 4), so the goldens hold on any core count; and two pool workers
    # with a thread per core each oversubscribe the cores (defect 3)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    workdir = WORK / str(os.getpid())
    (workdir / "tmp").mkdir(parents=True)
    try:
        if args.freeze:
            return freeze()
        env = dict(os.environ, E2E_WORKDIR=str(workdir))
        # keep the collector's unix socket under the checkout when its
        # path stays within the AF_UNIX limit
        if len(str(workdir / "tmp")) < 60:
            env["TMPDIR"] = str(workdir / "tmp")
        names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
        results = {}
        for name in names:
            result = run_workload(args, name, env)
            if result is None:
                return 1
            results[name] = result
            print_report(name, result, args.trace)
        if args.details:
            with open(args.details, "w") as fh:
                json.dump(results, fh, indent=1)
        metrics = {}
        for name, result in results.items():
            prefix = "" if args.workload else f"{name}."
            metrics.update(result_metrics(result, args.trace, prefix))
        attempted = sum(r["attempted"] for r in results.values())
        failed = sum(r["failed"] for r in results.values())
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
