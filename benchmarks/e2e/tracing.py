"""Out-of-program span tracing for the end-to-end benchmark.

The benchmark never edits the program it measures.  :func:`install`
replaces public functions and methods of each layer with thin wrappers
that record ``perf_counter`` spans, and :func:`uninstall` puts the
originals back.  Module functions are patched where the calling module
looks them up (``repro.eda.stages.synth.synthesize``, not
``repro.eda.synthesis.synthesize``).

Recording is switched by a one-byte gate in an anonymous shared mapping.
Pool workers forked after :func:`install` inherit both the wrappers and
the gate, so one traced run can alternate traced and untraced blocks and
measure its own overhead.  With the gate off a wrapper costs one byte
read.

Each process keeps its spans in memory.  A forked worker starts with an
empty buffer and writes it once, as ``<dump_dir>/spans-<pid>.json``,
from a ``multiprocessing.util.Finalize`` hook run when the worker exits.
A span is ``[name, start, end, self, parent, tid, trace]``: ``self`` is
the span's duration minus the durations of its direct children on the
same thread, and ``trace`` the job's ``repro.metrics.make_run_id`` (or
the benchmark's op id outside flow jobs).
"""

from __future__ import annotations

import functools
import glob
import json
import mmap
import os
import threading
import time
from multiprocessing import util as mp_util

#: spans the benchmark itself opens around each unit of work; a
#: process's coverage is the share of their time its layer spans explain
ROOT_SPANS = ("bench.op", "bench.campaign", "exec.job")

#: every layer span, in report order; each yields ``<name>.calls`` and
#: ``<name>.self_ms`` per op
STAGES = ("synth", "floorplan", "place", "cts", "groute", "opt", "droute_signoff")
SPANS = tuple(f"stage.{s}" for s in STAGES) + (
    "kernel.synthesize",
    "kernel.quadratic_place",
    "kernel.anneal",
    "kernel.cts",
    "kernel.global_route",
    "kernel.detailed_route",
    "kernel.sta_full",
    "kernel.sta_update",
    "kernel.sta_report",
    "kernel.opt",
    "kernel.power",
    "stage_cache.get",
    "stage_cache.put",
    "exec.run_jobs",
    "exec.result_cache.get",
    "exec.result_cache.put",
    "exec.job",
    "dse.engine",
    "dse.kill",
    "metrics.store.open",
    "metrics.store.ingest",
    "metrics.store.query",
    "metrics.transmitter.send",
    "metrics.miner.recommend",
    "doomed.fit_from_store",
)

#: per-layer metrics that are not span timings: (name, unit, better)
COUNTERS = tuple((f"stage.{s}.proxy", "proxy/op", "lower") for s in STAGES) + (
    ("stage_cache.hit_ratio", "frac", "higher"),
    ("exec.worker_busy_frac", "frac", "higher"),
    ("exec.retries", "count/op", "lower"),
    ("exec.failures", "count/op", "lower"),
    ("exec.proxy_executed", "proxy/op", "lower"),
    ("dse.kill.killed", "count/op", "higher"),
    ("dse.kill.proxy_saved", "proxy/op", "higher"),
    ("metrics.records", "count/op", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
)


def per_layer_catalog():
    """``(name, unit, better)`` of every per-layer metric a traced run emits."""
    out = []
    for span in SPANS:
        out.append((f"{span}.calls", "count/op", "lower"))
        out.append((f"{span}.self_ms", "ms/op", "lower"))
    return out + list(COUNTERS)


class Tracer:
    """In-memory span and counter buffer of one process (see module doc)."""

    def __init__(self, clock=time.perf_counter, dump_dir=None):
        self.clock = clock
        self.dump_dir = dump_dir
        self.gate = mmap.mmap(-1, 1)  # MAP_SHARED: visible to forked workers
        self._reset()
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _reset(self):
        self.pid = os.getpid()
        self.spans = []
        self.counters = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def _after_fork(self):
        self._reset()
        if self.dump_dir is not None:
            mp_util.Finalize(self, self.dump, exitpriority=100)

    # ------------------------------------------------------------ recording
    def enable(self, flag: bool) -> None:
        self.gate[0] = 1 if flag else 0

    def set_trace(self, trace_id) -> None:
        """Trace id stamped on spans this thread opens from now on."""
        self._local.trace = trace_id

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        record = [name, self.clock(), 0.0, 0.0, parent,
                  threading.get_native_id(), getattr(self._local, "trace", None)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append([index, 0.0])

    def end(self) -> None:
        now = self.clock()
        stack = self._stack()
        index, children = stack.pop()
        record = self.spans[index]
        duration = now - record[1]
        record[2] = now
        record[3] = duration - children
        if stack:
            stack[-1][1] += duration

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    # ------------------------------------------------------------ output
    def finished_spans(self):
        return [s for s in self.spans if s[2] > 0.0]

    def dump(self) -> None:
        """Write this process's spans to ``dump_dir`` (worker exit hook)."""
        spans = self.finished_spans()
        if not spans and not self.counters:
            return
        path = os.path.join(self.dump_dir, f"spans-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"pid": self.pid, "spans": spans, "counters": self.counters}, fh)
        os.replace(path + ".tmp", path)

    def collect(self):
        """``(processes, counters)``: this process's spans plus every
        worker dump, as ``[(pid, spans)]``, and the summed counters."""
        processes = [(self.pid, self.finished_spans())]
        counters = dict(self.counters)
        if self.dump_dir is not None:
            for path in sorted(glob.glob(os.path.join(self.dump_dir, "spans-*.json"))):
                with open(path) as fh:
                    data = json.load(fh)
                processes.append((data["pid"], data["spans"]))
                for name, value in data["counters"].items():
                    counters[name] = counters.get(name, 0.0) + value
        return processes, counters


# ---------------------------------------------------------------- analysis


def aggregate(processes):
    """``{name: [calls, total_s, self_s]}`` over every process's spans."""
    out = {}
    for _, spans in processes:
        for name, start, end, self_s, *_ in spans:
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_s
    return out


def coverage(processes):
    """``{pid: share}``: per process, the share of its root-span time
    (:data:`ROOT_SPANS`) that child layer spans account for."""
    out = {}
    for pid, spans in processes:
        total = covered = 0.0
        for name, start, end, self_s, parent, *_ in spans:
            if parent == -1 and name in ROOT_SPANS:
                total += end - start
                covered += end - start - self_s
        if total > 0.0:
            out[pid] = covered / total
    return out


def stage_table(totals, counters):
    """Rows ``(stage, wall share, proxy share)`` over the traced flows."""
    wall = {s: totals.get(f"stage.{s}", [0, 0.0, 0.0])[1] for s in STAGES}
    proxy = {s: counters.get(f"stage.{s}.proxy", 0.0) for s in STAGES}
    wall_sum, proxy_sum = sum(wall.values()), sum(proxy.values())
    if wall_sum == 0.0 or proxy_sum == 0.0:
        return []
    return [(s, wall[s] / wall_sum, proxy[s] / proxy_sum) for s in STAGES]


def chrome_trace(processes, path) -> None:
    """Write spans as Chrome trace-event JSON (Perfetto, chrome://tracing)."""
    events = []
    for pid, spans in processes:
        for name, start, end, self_s, parent, tid, trace in spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "pid": pid, "tid": tid,
                "args": {"trace": trace, "self_ms": self_s * 1e3},
            })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# ---------------------------------------------------------------- wrappers


def _wrap(tracer, fn, name, observe=None):
    """``fn`` inside a span; ``observe(*args, **kwargs)`` may return a
    callback that receives the result once the span has closed."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.gate[0]:
            return fn(*args, **kwargs)
        post = observe(*args, **kwargs) if observe is not None else None
        result = None
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.end()
            if post is not None:
                post(result)

    return wrapper


def _stage_proxy(tracer, name):
    """Count the runtime proxy of the StepLogs a stage run appended."""

    def observe(stage, state, *args, **kwargs):
        n_logs = len(state.result.logs)
        return lambda _: tracer.count(
            f"{name}.proxy",
            sum(log.runtime_proxy for log in state.result.logs[n_logs:]))

    return observe


def _stage_cache_probe(tracer):
    def observe(*args, **kwargs):
        return lambda hit: tracer.count(
            "stage_cache.misses" if hit is None else "stage_cache.hits", 1.0)

    return observe


def _job_trace(tracer):
    """Worker side: stamp the job's run id (``run_instrumented_flow_job``'s
    second argument) on the spans it opens."""

    def observe(queue, run_id, *args, **kwargs):
        tracer.set_trace(run_id)
        return None

    return observe


def _ingested(tracer):
    def observe(store, records, *args, **kwargs):
        return lambda _: tracer.count("metrics.records", float(len(records)))

    return observe


def _targets(tracer):
    """``(owner, attribute, span name, observer)`` for every wrapped callable."""
    from repro.core.doomed.mdp_policy import MDPCardLearner
    from repro.core.parallel.cache import ResultCache
    from repro.core.parallel.executor import FlowExecutor
    from repro.dse.engine import DSEEngine
    from repro.dse.kill import CardKillPolicy
    from repro.eda.cts import ClockTreeSynthesizer
    from repro.eda.opt import TimingOptimizer
    from repro.eda.placement import AnnealingRefiner, QuadraticPlacer
    from repro.eda.routing import DetailedRouter, GlobalRouter
    from repro.eda.sta.graph import TimingGraph
    from repro.eda.stages import droute as droute_stage
    from repro.eda.stages import synth as synth_stage
    from repro.eda.stages.cache import StageCache
    from repro.eda.stages.runner import FULL_FLOW_STAGES
    from repro.metrics import collector as collector_module
    from repro.metrics import store as store_module
    from repro.metrics.miner import DataMiner
    from repro.metrics.store import SqliteStore
    from repro.metrics.transmitter import Transmitter

    targets = [(type(stage), "run", f"stage.{stage.name}",
                _stage_proxy(tracer, f"stage.{stage.name}"))
               for stage in FULL_FLOW_STAGES]
    targets += [
        (synth_stage, "synthesize", "kernel.synthesize", None),
        (QuadraticPlacer, "place", "kernel.quadratic_place", None),
        (AnnealingRefiner, "refine", "kernel.anneal", None),
        (ClockTreeSynthesizer, "synthesize", "kernel.cts", None),
        (GlobalRouter, "route", "kernel.global_route", None),
        (DetailedRouter, "route", "kernel.detailed_route", None),
        (TimingGraph, "full_propagate", "kernel.sta_full", None),
        (TimingGraph, "update", "kernel.sta_update", None),
        (TimingGraph, "report", "kernel.sta_report", None),
        (TimingOptimizer, "optimize", "kernel.opt", None),
        (TimingOptimizer, "fix_hold", "kernel.opt", None),
        (droute_stage, "estimate_power", "kernel.power", None),
        (droute_stage, "ir_drop_analysis", "kernel.power", None),
        (StageCache, "get", "stage_cache.get", _stage_cache_probe(tracer)),
        (StageCache, "put", "stage_cache.put", None),
        (FlowExecutor, "run_jobs", "exec.run_jobs", None),
        (ResultCache, "get", "exec.result_cache.get", None),
        (ResultCache, "put", "exec.result_cache.put", None),
        (collector_module, "run_instrumented_flow_job", "exec.job", _job_trace(tracer)),
        (DSEEngine, "run", "dse.engine", None),
        (CardKillPolicy, "__call__", "dse.kill", None),
        (store_module, "open_store", "metrics.store.open", None),
        (SqliteStore, "ingest", "metrics.store.ingest", _ingested(tracer)),
        (Transmitter, "send", "metrics.transmitter.send", None),
        (DataMiner, "recommend_options", "metrics.miner.recommend", None),
        (MDPCardLearner, "fit_from_store", "doomed.fit_from_store", None),
    ]
    targets += [(SqliteStore, method, "metrics.store.query", None)
                for method in ("runs", "query", "run_vector", "run_vectors_matrix",
                               "table", "series")]
    return targets


def install(tracer):
    """Wrap every layer's public callables; returns the undo list for
    :func:`uninstall`.  Call before any process pool is created."""
    undo = []
    for owner, attribute, name, observe in _targets(tracer):
        own = attribute in vars(owner)  # False: inherited from a base class
        original = getattr(owner, attribute)
        undo.append((owner, attribute, original, own))
        setattr(owner, attribute, _wrap(tracer, original, name, observe))
    return undo


def uninstall(undo) -> None:
    for owner, attribute, original, own in reversed(undo):
        if own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)
