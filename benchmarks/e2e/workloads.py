"""The four campaign workloads of the end-to-end benchmark.

Every workload is a closed loop driven from one process: each call waits
for its result before the next is issued.  A workload turns the run seed
into an endless sequence of *blocks* (lists of *steps*) drawn from a
fixed pool of inputs, so every step any seed can produce has a frozen
golden digest in ``golden.json``.  A block is one unit of the workload's
traffic mix (every design once, one seed's whole sweep, one campaign,
ten sessions); a measured window ends on a block boundary, so every run
sees the mix in the same proportions.  Blocks run through the pool in
seed-shuffled cycles, and each pool is no larger than what a run gets
through on a slow host, so every run holds at least one whole cycle:
which inputs a seed draws then moves the metrics little.  A step is one
op, except on ``dse-campaign``, where a step is a whole campaign and
each explorer round inside it is an op.

=================  ====================================================
flow-cold          one ``SPRFlow().run`` per op, no caches, six designs
sweep-prefix       one GPU job per op through a stage-caching executor;
                   24 downstream points per flow seed share synth..groute
dse-campaign       explorer campaigns on MCU with an online MDP kill
                   policy, 2 pool workers, cross-process METRICS into sqlite
warehouse-read     query sessions over a sqlite METRICS archive: runs,
                   feature matrix, MDP card fit, option recommendation
=================  ====================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional

import numpy as np

import hostspeed
from repro.bench.generators import design_profile
from repro.core.doomed.mdp_policy import MDPCardLearner
from repro.core.parallel import FlowExecutor, FlowJob
from repro.dse import DSEEngine, default_flow_space, train_kill_policy
from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.metrics import (
    DataMiner,
    MetricsCollector,
    MetricsServer,
    SqliteStore,
    make_run_id,
)
from repro.metrics import store as store_module
from repro.metrics.store import stamp_campaign

DESIGNS = ("PHY", "MCU", "NOC", "DSP", "CPU", "GPU")
#: flow seed of every warm-up flow; outside every workload's input pool
WARMUP_SEED = 1_000_003


@dataclass
class Op:
    start_s: float    # perf_counter at issue
    end_s: float      # perf_counter at completion
    sim_units: float  # runtime_proxy delivered (simulated tool work)
    failed: bool = False
    probe_s: float = 0.0       # host-speed probe time just before the op
    probe_wall_s: float = 0.0  # wall the probing took, outside the op

    @property
    def latency_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class Step:
    """What one step returns: its ops, and the output that ``key``'s
    golden digest covers (checked after the timed window)."""

    ops: List[Op]
    key: str
    output: object


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def flow_digest(result) -> str:
    """sha256 over a flow's QoR fields and its full log text."""
    if not isinstance(result, FlowResult):
        return f"error: {result!r}"
    qor = [result.design, int(result.seed), float(result.area), float(result.power),
           float(result.leakage), float(result.wns), float(result.tns),
           float(result.achieved_ghz), float(result.hpwl), int(result.final_drvs),
           bool(result.routed), bool(result.timing_met), float(result.runtime_proxy)]
    return _sha([qor, result.log_text()])


class Workload:
    """Shared shape; see the module docstring for the step/op contract."""

    name = ""
    root_span = "bench.op"
    n_workers = 1

    def __init__(self, workdir: str, probing: bool = False):
        self.workdir = workdir
        self.probing = probing  # time a host-speed probe before each op

    def probe(self) -> float:
        """Host-speed probe before an op, in this process (see hostspeed)."""
        return hostspeed.probe() if self.probing else 0.0

    def setup(self) -> None:
        """Everything lazy: library build, warm-up flows, pool spawn."""

    def blocks(self, rng: np.random.Generator):
        raise NotImplementedError

    def begin_block(self) -> None:
        """Called inside the timed window before each block.  A block is
        self-contained: run again, it does the same work."""

    def run_step(self, step) -> Step:
        raise NotImplementedError

    def trace_id(self, step) -> str:
        return str(step)

    def digest(self, output) -> str:
        return flow_digest(output)

    def counters(self) -> Dict[str, float]:
        """Cumulative executor accounting (see :func:`executor_counters`)."""
        return {}

    def close(self) -> None:
        """Stop every process and thread the workload started."""

    def freeze(self) -> Dict[str, str]:
        """Golden digest of every step in the input pool, computed with
        the stage cache and the process pool off."""
        raise NotImplementedError


def executor_counters(executors) -> Dict[str, float]:
    out = dict.fromkeys(("retries", "failures", "proxy_executed", "kills",
                         "kill_proxy_saved"), 0.0)
    for executor in executors:
        stats = executor.stats
        out["retries"] += stats.retries
        out["failures"] += stats.failures
        out["proxy_executed"] += stats.runtime_proxy_executed
        out["kills"] += stats.kills
        out["kill_proxy_saved"] += stats.kill_proxy_saved
    return out


# ---------------------------------------------------------------- flow-cold


class FlowCold(Workload):
    """Cold single flows: every stage runs, nothing is cached."""

    name = "flow-cold"
    n_seeds = 6  # pool: DESIGNS x flow seeds 0..5

    def setup(self):
        self.specs = {d: design_profile(d) for d in DESIGNS}
        self.options = FlowOptions()
        for spec in self.specs.values():
            SPRFlow().run(spec, self.options, WARMUP_SEED)

    def blocks(self, rng):
        # a block is one flow seed on every design, in random order
        while True:
            for seed in rng.permutation(self.n_seeds):
                yield [(DESIGNS[i], int(seed)) for i in rng.permutation(len(DESIGNS))]

    def trace_id(self, step):
        design, seed = step
        return make_run_id(self.specs[design], self.options, seed)

    def run_step(self, step):
        design, seed = step
        probe_s = self.probe()
        t0 = perf_counter()
        result = SPRFlow().run(self.specs[design], self.options, seed)
        op = Op(t0, perf_counter(), result.runtime_proxy, probe_s=probe_s,
                probe_wall_s=probe_s)
        return Step([op], f"{design}/{seed}", result)

    def freeze(self):
        specs = {d: design_profile(d) for d in DESIGNS}
        return {f"{d}/{s}": flow_digest(SPRFlow().run(specs[d], FlowOptions(), s))
                for d in DESIGNS for s in range(self.n_seeds)}


# ---------------------------------------------------------------- sweep-prefix


class SweepPrefix(Workload):
    """A downstream-knob sweep: the stage cache serves synth..groute."""

    name = "sweep-prefix"
    n_seeds = 4  # pool: flow seeds 0..3 x points
    points = tuple(
        {"router_effort": effort, "router_max_iterations": iterations,
         "opt_passes": passes}
        for effort in (0.3, 0.5, 0.7, 0.9)
        for iterations in (10, 20, 30)
        for passes in (4, 8)
    )

    def setup(self):
        self.spec = design_profile("GPU")
        self.options = self._point_options()
        with FlowExecutor(n_workers=1, cache=True, stage_cache=True) as warm:
            warm.run_jobs([FlowJob(self.spec, self.options[0], WARMUP_SEED)])
        self.executor: Optional[FlowExecutor] = None
        self.closed: List[FlowExecutor] = []

    def _point_options(self):
        base = FlowOptions(placer_moves_per_cell=16)
        return [base.with_(**point) for point in self.points]

    def blocks(self, rng):
        # a block is one flow seed's sweep, its points in random order;
        # prefix keys include the seed, so no two seeds share an entry
        while True:
            for seed in rng.permutation(self.n_seeds):
                yield [(int(seed), int(i)) for i in rng.permutation(len(self.points))]

    def begin_block(self):
        self._close_executor()
        # each sweep is a campaign of its own: constructing a
        # stage-caching executor starts it with an empty stage cache
        self.executor = FlowExecutor(n_workers=1, cache=True, stage_cache=True)

    def _close_executor(self):
        if self.executor is not None:
            self.executor.close()
            self.closed.append(self.executor)
            self.executor = None

    def trace_id(self, step):
        seed, i = step
        return make_run_id(self.spec, self.options[i], seed)

    def run_step(self, step):
        seed, i = step
        probe_s = self.probe()
        t0 = perf_counter()
        outcome = self.executor.run_jobs([FlowJob(self.spec, self.options[i], seed)])[0]
        t1 = perf_counter()
        ok = isinstance(outcome, FlowResult)
        op = Op(t0, t1, outcome.runtime_proxy if ok else 0.0, failed=not ok,
                probe_s=probe_s, probe_wall_s=probe_s)
        return Step([op], f"{seed}/{i}", outcome)

    def counters(self):
        live = [self.executor] if self.executor is not None else []
        return executor_counters(self.closed + live)

    def close(self):
        self._close_executor()

    def freeze(self):
        spec = design_profile("GPU")
        options = self._point_options()
        return {f"{s}/{i}": flow_digest(SPRFlow().run(spec, options[i], s))
                for s in range(self.n_seeds) for i in range(len(options))}


# ---------------------------------------------------------------- dse-campaign


class RoundRecorder(FlowExecutor):
    """A FlowExecutor that records each ``run_jobs`` call, timed at the
    executor boundary: one explorer round, one op.  With ``probing``, it
    probes every vCPU before each round, since the round's two flows
    run on both."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds = []
        self.probing = False

    def run_jobs(self, jobs, stop_callback=None):
        p0 = perf_counter()
        probe_s = hostspeed.probe_each_cpu() if self.probing else 0.0
        t0 = perf_counter()
        outcomes = super().run_jobs(jobs, stop_callback)
        self.rounds.append((t0, perf_counter(), probe_s, t0 - p0, jobs, outcomes))
        return outcomes


class DseCampaign(Workload):
    """Explorer campaigns with online kills on a 2-worker pool, every
    record collected across processes into one sqlite warehouse."""

    name = "dse-campaign"
    root_span = "bench.campaign"
    n_workers = 2
    n_seeds = 2      # campaigns c0, c1
    n_rounds = 25    # explorer rounds (ops) per campaign
    n_concurrent = 2

    def setup(self):
        self.spec = design_profile("MCU")
        self.kill_policy = train_kill_policy("mdp", seed=0)
        self.store = SqliteStore(os.path.join(self.workdir, "campaigns.sqlite"))
        self.server = MetricsServer(store=self.store, campaign="warmup")
        self.collector = MetricsCollector(self.server, cross_process=True).start()
        self.executor = RoundRecorder(n_workers=self.n_workers, cache=True,
                                      collector=self.collector)
        # spawns the pool and warms every worker
        self.executor.run_jobs([FlowJob(self.spec, FlowOptions(), WARMUP_SEED + w)
                                for w in range(self.n_workers)])
        self.collector.flush()
        self.executor.probing = self.probing
        self.n_campaigns = 0

    def blocks(self, rng):
        while True:
            for seed in rng.permutation(self.n_seeds):
                yield [int(seed)]

    def trace_id(self, seed):
        return f"c{seed}"

    def run_step(self, seed):
        tag = f"c{seed}-{self.n_campaigns}"  # unique, so each record count is one campaign's
        self.n_campaigns += 1
        return run_campaign(self.executor, self.collector, self.kill_policy,
                            self.spec, seed, tag, self.n_rounds, self.n_concurrent)

    def digest(self, output):
        output = dict(output)
        output["records"] = len(self.store.query(campaign=output.pop("tag")))
        return _sha(output)

    def counters(self):
        return executor_counters([self.executor])

    def close(self):
        self.executor.close()
        self.collector.stop()
        self.store.close()

    def freeze(self):
        spec = design_profile("MCU")
        kill_policy = train_kill_policy("mdp", seed=0)
        goldens = {}
        for seed in range(self.n_seeds):
            path = os.path.join(self.workdir, f"freeze-{seed}.sqlite")
            self.store = SqliteStore(path)
            collector = MetricsCollector(MetricsServer(store=self.store),
                                         cross_process=False).start()
            executor = RoundRecorder(n_workers=1, cache=True, collector=collector)
            step = run_campaign(executor, collector, kill_policy, spec, seed,
                                f"c{seed}", self.n_rounds, self.n_concurrent)
            executor.close()
            collector.stop()
            goldens[step.key] = self.digest(step.output)
            self.store.close()
        return goldens


def run_campaign(executor, collector, kill_policy, spec, seed, tag, n_rounds,
                 n_concurrent) -> Step:
    """One explorer campaign under campaign id ``tag``; one op per round.

    The result cache is emptied first: every campaign pays for its own
    flows, even when a seed repeats within a run."""
    executor.cache.clear()
    executor.rounds = []
    collector.server.campaign = tag
    engine = DSEEngine(strategy="explorer", executor=executor,
                       kill_policy=kill_policy,
                       params={"n_rounds": n_rounds, "n_concurrent": n_concurrent})
    result = engine.run(spec, seed=seed)
    collector.flush()
    ops, rounds = [], []
    for start, end, probe_s, probe_wall_s, jobs, outcomes in executor.rounds:
        ops.append(Op(start, end,
                      sum(o.runtime_proxy for o in outcomes if isinstance(o, FlowResult)),
                      failed=not all(isinstance(o, FlowResult) for o in outcomes),
                      probe_s=probe_s, probe_wall_s=probe_wall_s))
        rounds.append([[job.options.to_dict(), int(job.seed), flow_digest(outcome)]
                       for job, outcome in zip(jobs, outcomes)])
    output = {
        "tag": tag,
        "rounds": rounds,
        "killed": int(result.n_killed),
        "kill_proxy_saved": float(result.kill_proxy_saved),
        "best_score": float(result.best_score),
        "best": flow_digest(result.best_result),
        "runs": int(result.n_runs),
    }
    return Step(ops, f"c{seed}", output)


# ---------------------------------------------------------------- warehouse-read


class WarehouseRead(Workload):
    """Query sessions over a METRICS archive; no flow kernels run."""

    name = "warehouse-read"
    archive_points = 16     # PHY flows in the source campaign
    n_tags = 24             # campaign tags the source campaign is ingested under
    block_sessions = 10     # the last one first ingests a new campaign, tagged "x"
    basis = ("flow.area", "flow.achieved_ghz", "signoff.wns", "place.hpwl")

    def setup(self):
        self._build_archive()

    def _build_archive(self):
        spec = design_profile("PHY")
        self.design = spec.name
        space = default_flow_space()
        rng = np.random.default_rng(0)
        jobs = [FlowJob(spec, space.to_flow_options(space.sample(rng)),
                        int(rng.integers(0, 2**31 - 1)))
                for _ in range(self.archive_points)]
        server = MetricsServer()
        with MetricsCollector(server, cross_process=False) as collector:
            with FlowExecutor(n_workers=1, cache=True, collector=collector) as executor:
                results = executor.run_jobs(jobs)
            collector.flush()
        if not all(isinstance(r, FlowResult) for r in results):
            raise RuntimeError("archive flow campaign failed")
        records = server.query()
        # a session simulates nothing, but every workload must report
        # sim_units_per_s: here it is the simulated work of the runs each
        # session analyses, so it moves in lockstep with ops_per_s
        self.campaign_proxy = sum(r.runtime_proxy for r in results)
        self.pristine = os.path.join(self.workdir, "archive.sqlite")
        with SqliteStore(self.pristine) as store:
            for k in range(self.n_tags):
                store.ingest(_retag(records, f"t{k:02d}"))
        self.extra = _retag(records, "x")
        self.live = os.path.join(self.workdir, "live.sqlite")

    def blocks(self, rng):
        tags = []
        while True:
            steps = []
            for _ in range(self.block_sessions - 1):
                if not tags:
                    tags = [f"t{k:02d}" for k in rng.permutation(self.n_tags)]
                steps.append(tags.pop())
            yield steps + ["x"]

    def begin_block(self):
        # every block starts from a copy of the archive, so the store
        # does not grow with the number of blocks a run gets through
        shutil.copyfile(self.pristine, self.live)

    def run_step(self, tag):
        probe_s = self.probe()
        t0 = perf_counter()
        answers = self._session(tag)
        op = Op(t0, perf_counter(), self.campaign_proxy, probe_s=probe_s,
                probe_wall_s=probe_s)
        return Step([op], tag, answers)

    def _session(self, tag):
        server = MetricsServer(store=store_module.open_store(self.live))
        try:
            if tag == "x":
                server.store.ingest(self.extra)
            runs = server.runs(campaign=tag)
            run_ids, matrix = server.run_vectors_matrix(self.basis, campaign=tag)
            card = MDPCardLearner().fit_from_store(server, campaign=tag)
            advice = DataMiner(server, seed=0).recommend_options(
                design=self.design, campaign=tag)
        finally:
            server.close()
        return [runs, run_ids, matrix.tolist(), card.actions.tolist(),
                card.visited.tolist(), sorted(advice.options.items()),
                advice.predicted_objective, advice.model_r2]

    def digest(self, output):
        return _sha(output)

    def freeze(self):
        self._build_archive()
        self.begin_block()
        goldens = {f"t{k:02d}": self.digest(self._session(f"t{k:02d}"))
                   for k in range(self.n_tags)}
        goldens["x"] = self.digest(self._session("x"))
        return goldens


def _retag(records, tag):
    """The records re-ingested as a new campaign, run ids prefixed."""
    return [stamp_campaign(replace(r, run_id=f"{tag}-{r.run_id}"), tag) for r in records]


WORKLOADS = {w.name: w for w in (FlowCold, SweepPrefix, DseCampaign, WarehouseRead)}
