"""The shared parallel flow-execution engine.

The paper's experiments all assume *N concurrent tool licenses*: GWTW
trajectory rounds, batched-bandit iterations with 5 samples each,
multistart batches, characterization sweeps.  :class:`FlowExecutor`
makes that concurrency real: campaign layers submit
``(design, options, seed)`` jobs and get :class:`FlowResult`\\ s back
**in deterministic submission order**, whether the jobs ran serially
in-process (``n_workers=1``), across a ``ProcessPoolExecutor``
(``n_workers>1``), or straight out of the result cache.

Failure semantics: a job that times out or whose worker crashes (after
``max_retries`` resubmissions) yields a :class:`FlowExecutionError`
*in its result slot* instead of aborting the batch — campaign layers
record the failure in their trace and keep going, exactly like a
license-server hiccup in a real tool farm.

With a :class:`~repro.metrics.MetricsCollector` attached, every flow
job additionally reports into METRICS: workers transmit step metrics
through the collector's queue, and the executor emits per-job event
records (cache tier, dedup, retries, timeouts, wall time) — see
``docs/metrics.md``.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import tempfile
import time

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.parallel.cache import CACHE_SCHEMA, ResultCache, cache_key
from repro.eda.flow import FlowOptions, FlowResult, _default_library
from repro.eda.netlist import Netlist
from repro.eda.stages.cache import StageCache, configure_stage_cache, get_stage_cache
from repro.eda.stages.runner import StagedJobOutcome, StageReport, execute_pipeline
from repro.eda.synthesis import DesignSpec

Design = Union[DesignSpec, Netlist]


@dataclass(frozen=True)
class FlowJob:
    """One unit of campaign work: a flow run at a specific point."""

    design: Design
    options: FlowOptions
    seed: int


class FlowExecutionError(RuntimeError):
    """A job that could not produce a :class:`FlowResult`.

    Returned *in the job's result slot* (never raised across a batch),
    so the campaign trace records which point failed, with what, and
    after how many attempts.
    """

    def __init__(self, message: str, job_index: int = -1, seed: int = -1,
                 attempts: int = 1, kind: str = "crash"):
        super().__init__(message)
        self.job_index = job_index
        self.seed = seed
        self.attempts = attempts
        self.kind = kind  # "crash" | "timeout"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FlowExecutionError(kind={self.kind!r}, job={self.job_index}, "
                f"seed={self.seed}, attempts={self.attempts}: {self.args[0]!r})")


@dataclass
class ExecutorStats:
    """Executor-level accounting, surfaced through the CLI.

    ``wall_time_s`` is real elapsed time inside ``run_jobs``/``map``;
    ``runtime_proxy_total`` is the summed simulated tool cost of the
    results delivered (including cached ones) — their ratio is the
    work-delivered-per-second the parallel+cache machinery achieves.
    ``runtime_proxy_executed`` is the subset of that cost actually
    *paid* this campaign: a whole-run cache hit or dedup contributes 0,
    a stage-cache prefix resume contributes only its suffix — so
    ``runtime_proxy_total - runtime_proxy_executed`` is the work the
    caches saved.  ``stage_hits``/``stage_misses`` count pipeline
    stages served from / executed past the stage-prefix cache, with
    per-stage breakdowns in the ``*_by_stage`` dicts, and
    ``resumed_iterations`` the detailed-router iterations answered from
    cached trajectories (delivered, but not executed).
    """

    jobs_submitted: int = 0
    jobs_run: int = 0
    cache_hits_memory: int = 0
    cache_hits_disk: int = 0
    deduped: int = 0
    retries: int = 0
    failures: int = 0
    timeouts: int = 0
    wall_time_s: float = 0.0
    runtime_proxy_total: float = 0.0
    runtime_proxy_executed: float = 0.0
    stage_hits: int = 0
    stage_misses: int = 0
    stage_hits_by_stage: Dict[str, int] = field(default_factory=dict)
    stage_misses_by_stage: Dict[str, int] = field(default_factory=dict)
    resumed_iterations: int = 0
    kills: int = 0
    kill_proxy_saved: float = 0.0

    @property
    def cache_hits(self) -> int:
        return self.cache_hits_memory + self.cache_hits_disk

    @property
    def cache_hit_rate(self) -> float:
        if self.jobs_submitted == 0:
            return 0.0
        return (self.cache_hits + self.deduped) / self.jobs_submitted

    def summary(self) -> str:
        line = (
            f"jobs={self.jobs_submitted} run={self.jobs_run} "
            f"cache_hits={self.cache_hits} (mem={self.cache_hits_memory} "
            f"disk={self.cache_hits_disk} dedup={self.deduped}, "
            f"rate={self.cache_hit_rate:.0%}) retries={self.retries} "
            f"failures={self.failures} timeouts={self.timeouts} "
            f"wall={self.wall_time_s:.2f}s "
            f"work_delivered={self.runtime_proxy_total:.0f} units"
        )
        if self.stage_hits or self.stage_misses:
            line += (
                f" stage_hits={self.stage_hits} stage_misses={self.stage_misses} "
                f"work_executed={self.runtime_proxy_executed:.0f} units"
            )
        if self.resumed_iterations:
            line += f" resumed_iterations={self.resumed_iterations}"
        if self.kills:
            line += (
                f" kills={self.kills} "
                f"kill_saved={self.kill_proxy_saved:.0f} units"
            )
        return line


def _worker_init(stage_cache: bool = False) -> None:
    """Per-worker-process initializer: build the shared default library
    eagerly so no worker races the lazy global on first use, and (when
    stage caching is on) give the worker its own process-local stage
    cache — prefix snapshots are reused across the jobs each worker
    executes, with no cross-process traffic."""
    _default_library()
    if stage_cache:
        configure_stage_cache()


def _kill_proxy_saved(result: FlowResult) -> Optional[float]:
    """Router proxy a stopped-early run avoided, or None if it ran out.

    The router only exits before ``router_max_iterations`` when the
    stop callback fired or the design routed clean (``drvs == 0``), so
    *dirty and short of the cap* identifies a killed run without any
    change to the step-log format.
    """
    from repro.eda.stages.droute import DROUTE_ITERATION_PROXY

    for log in result.logs:
        if log.step == "droute":
            iterations = int(log.metrics.get("iterations", 0))
            cap = result.options.router_max_iterations
            if result.final_drvs > 0 and iterations < cap:
                return (cap - iterations) * DROUTE_ITERATION_PROXY
            return None
    return None


def run_flow_job(design: Design, options: FlowOptions, seed: int,
                 stop_callback=None,
                 stage_cache: Union[bool, StageCache] = False) -> StagedJobOutcome:
    """Execute one flow job (module-level, hence picklable).

    ``DesignSpec`` inputs go through the full flow (synthesis
    included); ``Netlist`` inputs go straight to physical
    implementation — the partition-driven entry point.  The result
    comes back with the job's :class:`StageReport`.  ``stage_cache``
    is the :class:`~repro.eda.stages.cache.StageCache` the job resumes
    from (a serial executor passes its own), or True for this
    process's (see :func:`~repro.eda.stages.cache.get_stage_cache`; a
    pool worker's), in which case a process without one runs every
    stage.
    """
    if isinstance(stage_cache, StageCache):
        cache = stage_cache
    else:
        cache = get_stage_cache() if stage_cache else None
    report = StageReport()
    result = execute_pipeline(
        design, options, seed, stop_callback=stop_callback,
        cache=cache, report=report,
    )
    return StagedJobOutcome(result=result, report=report)


class FlowExecutor:
    """Fan flow jobs across workers, with deduplicating result caching.

    Parameters
    ----------
    n_workers:
        1 = serial in-process execution (no pickling constraints, used
        by tests and as the deterministic reference); >1 = a
        ``ProcessPoolExecutor`` with that many workers.
    cache:
        a :class:`ResultCache`, or True for a default in-memory LRU, or
        None/False to disable caching entirely.
    cache_dir:
        convenience: with ``cache=True``, adds the on-disk JSON tier.
    timeout_s:
        per-job wall-clock timeout (process mode only; a serial job
        cannot be preempted).  A timed-out job is recorded as a
        ``FlowExecutionError(kind="timeout")`` and not retried.
    max_retries:
        resubmissions allowed per job after a worker crash.
    flow_fn:
        the job function, ``(design, options, seed, stop_callback,
        stage_cache) -> StagedJobOutcome``, called with
        :func:`run_flow_job`'s ``stage_cache`` values.  Defaults to
        :func:`run_flow_job`; tests inject crashing/slow stand-ins here.
    collector:
        an optional :class:`~repro.metrics.MetricsCollector`.  When
        set, every flow job reports into its server: executed jobs
        transmit their step metrics worker-side (through the
        collector's queue), cache-served jobs are re-reported
        coordinator-side, and the executor emits per-job event records
        (cache tier hits, dedup, retries, timeouts, wall vs. proxy
        runtime) under the job's run id.  Run ids are content-derived
        (:func:`~repro.metrics.make_run_id`), so identical jobs share
        one id and distinct jobs never collide across workers.  With
        ``n_workers > 1`` the collector must be ``cross_process=True``.
        When the collector's server carries a campaign id, every record
        this executor produces — worker-side step metrics and the
        coordinator-side event records alike — is stamped with it on
        ingest, so multi-session warehouses stay sliceable by campaign.
    stage_cache:
        enable the stage-prefix cache: every job carries this flag to
        ``flow_fn`` and resumes from the deepest cached prefix snapshot,
        re-running only the changed suffix (see ``docs/parallel.md``).
        A serial executor owns one
        :class:`~repro.eda.stages.cache.StageCache` of the default 64
        entries, which ``close`` releases; pool mode gives each worker
        process its own.
        ``stats``' stage counters count only on a stage-caching
        executor; the per-job records report every job's stages.
    """

    def __init__(
        self,
        n_workers: int = 1,
        cache: Union[ResultCache, bool, None] = True,
        cache_dir: Optional[str] = None,
        timeout_s: Optional[float] = None,
        max_retries: int = 1,
        flow_fn: Optional[Callable[..., FlowResult]] = None,
        collector=None,
        stage_cache: bool = False,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.n_workers = n_workers
        if cache is True:
            cache = ResultCache(cache_dir=cache_dir)
        elif cache is False:
            cache = None
        elif cache is not None and cache_dir is not None:
            raise ValueError("pass cache_dir only with cache=True")
        self.cache = cache
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.flow_fn = flow_fn or run_flow_job
        self.collector = collector
        self.stage_cache = stage_cache
        self.stats = ExecutorStats()
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._serial_stage_cache: Optional[StageCache] = None
        self._cache_stats_persisted = False

    # ------------------------------------------------------------ lifecycle
    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.n_workers, initializer=_worker_init,
                initargs=(self.stage_cache,),
            )
        return self._pool

    def _restart_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _job_stage_cache(self) -> Union[bool, StageCache]:
        """What each job's ``stage_cache`` carries: False, True for the
        pool workers' own caches, or this serial executor's cache
        (created on first use)."""
        if not self.stage_cache or self.n_workers > 1:
            return self.stage_cache
        if self._serial_stage_cache is None:
            self._serial_stage_cache = StageCache()
        return self._serial_stage_cache

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # campaigns keep closed executors for their stats; the snapshots
        # and trajectories must not outlive the executor with them
        self._serial_stage_cache = None
        self._persist_cache_stats()

    def _persist_cache_stats(self) -> None:
        """Merge this executor's cache accounting into
        ``<cache_dir>/cache-stats.json`` (read by ``repro cache stats``).
        Counters are summed into any prior file so sequential campaigns
        over one cache directory accumulate; written at most once per
        executor, atomically, and never fails the campaign.

        The read-merge-write runs under an exclusive ``flock`` on a
        sidecar lockfile: two executors closing at once over the same
        cache directory would otherwise both read the same prior file
        and the second ``os.replace`` would silently drop the first
        executor's counters.
        """
        if (self.cache is None or self.cache.cache_dir is None
                or self._cache_stats_persisted):
            return
        self._cache_stats_persisted = True
        path = os.path.join(self.cache.cache_dir, "cache-stats.json")
        payload = {
            "jobs_submitted": self.stats.jobs_submitted,
            "jobs_run": self.stats.jobs_run,
            "cache_hits_memory": self.stats.cache_hits_memory,
            "cache_hits_disk": self.stats.cache_hits_disk,
            "deduped": self.stats.deduped,
            "stage_hits": self.stats.stage_hits,
            "stage_misses": self.stats.stage_misses,
            "stage_hits_by_stage": dict(self.stats.stage_hits_by_stage),
            "stage_misses_by_stage": dict(self.stats.stage_misses_by_stage),
            "runtime_proxy_total": self.stats.runtime_proxy_total,
            "runtime_proxy_executed": self.stats.runtime_proxy_executed,
        }
        try:
            lock_fd = os.open(path + ".lock", os.O_CREAT | os.O_RDWR, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(lock_fd, fcntl.LOCK_EX)
                try:
                    with open(path) as fh:
                        prior = json.load(fh)
                except (OSError, ValueError):
                    prior = {}
                if not isinstance(prior, dict):
                    prior = {}  # corrupt: rewritten with this run's counters
                for key, value in payload.items():
                    if isinstance(value, dict):
                        merged = dict(prior.get(key, {}) or {})
                        for stage, count in value.items():
                            merged[stage] = merged.get(stage, 0) + count
                        payload[key] = merged
                    else:
                        payload[key] = value + prior.get(key, 0)
                payload["schema"] = CACHE_SCHEMA
                fd, tmp = tempfile.mkstemp(dir=self.cache.cache_dir, suffix=".tmp")
                try:
                    with os.fdopen(fd, "w") as fh:
                        json.dump(payload, fh)
                    os.replace(tmp, path)
                finally:
                    if os.path.exists(tmp):
                        os.unlink(tmp)
            finally:
                os.close(lock_fd)  # closing drops the flock
        except (OSError, TypeError, ValueError):
            pass  # stats persistence must not fail the campaign

    def __enter__(self) -> "FlowExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ flow jobs
    def run_jobs(
        self,
        jobs: Sequence[FlowJob],
        stop_callback=None,
    ) -> List[Union[FlowResult, FlowExecutionError]]:
        """Run a batch; results come back in submission order.

        Identical jobs within the batch execute once (dedup); jobs
        whose key is cached execute zero times.  ``stop_callback``
        (the doomed-run pruning hook) applies to every job in the
        batch; in process mode it must be picklable.
        """
        t0 = time.perf_counter()
        self.stats.jobs_submitted += len(jobs)
        collecting = self._start_collection()
        # one content key per job: the result cache's key and the run
        # id's (hashing a Netlist job serializes the whole netlist)
        if self.cache is not None or collecting:
            keys = [cache_key(job.design, job.options, job.seed) for job in jobs]
        else:
            keys = [None] * len(jobs)
        run_ids = None
        if collecting:
            from repro.metrics.wrappers import run_id_from_key

            run_ids = [run_id_from_key(job.design.name, key)
                       for job, key in zip(jobs, keys)]
        results: List[Optional[Union[FlowResult, FlowExecutionError]]] = [None] * len(jobs)
        hit_tier: List[Optional[str]] = [None] * len(jobs)
        deduped: List[bool] = [False] * len(jobs)
        job_attempts: List[int] = [0] * len(jobs)
        # cache-served, deduped and failed slots keep an empty report
        reports = [StageReport() for _ in jobs]
        killed: List[bool] = [False] * len(jobs)
        kill_saved: List[float] = [0.0] * len(jobs)

        # cache lookups + within-batch dedup
        to_run: List[int] = []        # job indices that must execute
        followers: dict = {}          # leader index -> indices sharing its key
        leader_of_key: dict = {}
        for i, key in enumerate(keys):
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    if self.cache.last_tier == "disk":
                        self.stats.cache_hits_disk += 1
                    else:
                        self.stats.cache_hits_memory += 1
                    hit_tier[i] = self.cache.last_tier
                    results[i] = hit
                    continue
                if key in leader_of_key:
                    followers.setdefault(leader_of_key[key], []).append(i)
                    self.stats.deduped += 1
                    deduped[i] = True
                    continue
                leader_of_key[key] = i
            to_run.append(i)

        stage_cache = self._job_stage_cache()
        tasks = [(jobs[i].design, jobs[i].options, jobs[i].seed, stop_callback,
                  stage_cache) for i in to_run]
        fn = self.flow_fn
        if run_ids is not None:
            # workers report step metrics themselves, through the queue
            from repro.metrics.collector import run_instrumented_flow_job

            tasks = [(self.collector.queue, run_ids[i], self.flow_fn) + task
                     for i, task in zip(to_run, tasks)]
            fn = run_instrumented_flow_job
        attempts_out: List[int] = []
        executed = self._execute(tasks, indices=to_run, fn=fn,
                                 attempts_out=attempts_out)
        for i, outcome, n_attempts in zip(to_run, executed, attempts_out):
            job_attempts[i] = n_attempts
            if not isinstance(outcome, FlowExecutionError):
                reports[i] = outcome.report
                outcome = outcome.result
                if stop_callback is not None:
                    saved = _kill_proxy_saved(outcome)
                    if saved is not None:
                        killed[i] = True
                        kill_saved[i] = saved
                        self.stats.kills += 1
                        self.stats.kill_proxy_saved += saved
                if self.cache is not None:
                    self.cache.put(keys[i], outcome)
            results[i] = outcome
            for j in followers.get(i, ()):
                results[j] = outcome

        for outcome, report in zip(results, reports):
            if isinstance(outcome, FlowResult):
                self.stats.runtime_proxy_total += outcome.runtime_proxy
            self.stats.runtime_proxy_executed += report.executed_proxy
            if self.stage_cache:
                self.stats.resumed_iterations += report.resumed_iterations
                self.stats.stage_hits += report.n_hits
                self.stats.stage_misses += report.n_misses
                for name in report.hit_stages:
                    self.stats.stage_hits_by_stage[name] = \
                        self.stats.stage_hits_by_stage.get(name, 0) + 1
                for name in report.run_stages:
                    self.stats.stage_misses_by_stage[name] = \
                        self.stats.stage_misses_by_stage.get(name, 0) + 1
        wall = time.perf_counter() - t0
        self.stats.wall_time_s += wall
        if run_ids is not None:
            self._report_batch(jobs, run_ids, results, hit_tier, deduped,
                               job_attempts, wall, reports, killed, kill_saved)
        return results  # type: ignore[return-value]

    def run_one(
        self, design: Design, options: FlowOptions, seed: int, stop_callback=None
    ) -> Union[FlowResult, FlowExecutionError]:
        """Convenience wrapper: one job, one outcome."""
        return self.run_jobs([FlowJob(design, options, seed)], stop_callback)[0]

    # --------------------------------------------------------- generic jobs
    def map(self, fn: Callable, args_list: Sequence[Tuple]) -> List[object]:
        """Run arbitrary picklable ``fn(*args)`` tasks with the same
        ordering/timeout/retry machinery (no caching — generic tasks
        have no content key).  Campaign layers whose unit of work is
        not a flow run (multistart local searches, sizer gradings) go
        through here."""
        t0 = time.perf_counter()
        self.stats.jobs_submitted += len(args_list)
        outcomes = self._execute(list(args_list), fn=fn,
                                 indices=list(range(len(args_list))))
        self.stats.wall_time_s += time.perf_counter() - t0
        return outcomes

    # ------------------------------------------------------------ internals
    def _start_collection(self) -> bool:
        """Whether this batch is instrumented; starts the collector if so."""
        if self.collector is None:
            return False
        if self.n_workers > 1 and not self.collector.cross_process:
            raise ValueError(
                "n_workers > 1 needs a MetricsCollector(cross_process=True)"
            )
        self.collector.start()  # idempotent
        return True

    def _report_batch(self, jobs, run_ids, results, hit_tier, deduped,
                      job_attempts, wall: float, reports, killed,
                      kill_saved) -> None:
        """Emit per-job executor-event records, and re-report cache-served
        results whose step metrics may predate this server (disk tier)."""
        from repro.metrics.transmitter import Transmitter
        from repro.metrics.wrappers import report_flow_metrics

        for i, job in enumerate(jobs):
            outcome = results[i]
            failed = isinstance(outcome, FlowExecutionError)
            report = reports[i]
            design_name = job.design.name
            with Transmitter(self.collector.queue, design_name,
                             run_ids[i], tool="flow_executor") as tx:
                tx.send("exec.cache_hit_memory", float(hit_tier[i] == "memory"))
                tx.send("exec.cache_hit_disk", float(hit_tier[i] == "disk"))
                tx.send("exec.dedup", float(deduped[i]))
                tx.send("exec.attempts", float(job_attempts[i]))
                tx.send("exec.retries", float(max(0, job_attempts[i] - 1)))
                tx.send("exec.timeout",
                        float(failed and outcome.kind == "timeout"))
                tx.send("exec.failure", float(failed))
                tx.send("exec.runtime_proxy",
                        0.0 if failed else outcome.runtime_proxy)
                tx.send("exec.wall_time", wall)
                tx.send("exec.stage.hit", float(report.n_hits))
                tx.send("exec.stage.miss", float(report.n_misses))
                tx.send("stage.runtime_proxy", float(report.executed_proxy))
                tx.send("sta.full", float(report.sta_full))
                tx.send("sta.incremental.updates", float(report.sta_incremental))
                tx.send("sta.incremental.nodes", float(report.sta_nodes))
                tx.send("sta.incremental.proxy_saved", float(report.sta_proxy_saved))
                tx.send("exec.killed.run", float(killed[i]))
                tx.send("exec.killed.proxy_saved", float(kill_saved[i]))
            if hit_tier[i] is not None and not failed:
                with Transmitter(self.collector.queue, design_name,
                                 run_ids[i], tool="spr_flow") as tx:
                    report_flow_metrics(tx, outcome)

    def _execute(self, tasks: List[Tuple], indices: List[int], fn: Callable,
                 attempts_out: Optional[List[int]] = None) -> List[object]:
        if attempts_out is None:
            attempts_out = []
        if not tasks:
            return []
        if self.n_workers == 1:
            pairs = [self._run_serial(fn, task, idx)
                     for task, idx in zip(tasks, indices)]
        else:
            pairs = self._run_pool(fn, tasks, indices)
        attempts_out.extend(n for _, n in pairs)
        return [outcome for outcome, _ in pairs]

    def _run_serial(self, fn, task, index):
        attempts = 0
        while True:
            attempts += 1
            try:
                result = fn(*task)
                self.stats.jobs_run += 1
                return result, attempts
            except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                if attempts <= self.max_retries:
                    self.stats.retries += 1
                    continue
                self.stats.failures += 1
                return FlowExecutionError(
                    f"job failed after {attempts} attempt(s): {exc}",
                    job_index=index, seed=self._seed_of(task),
                    attempts=attempts, kind="crash",
                ), attempts

    def _run_pool(self, fn, tasks, indices):
        pool = self._ensure_pool()
        futures = [pool.submit(fn, *task) for task in tasks]
        outcomes: List[object] = []
        attempts = [1] * len(tasks)
        for pos, future in enumerate(futures):
            while True:
                try:
                    result = future.result(timeout=self.timeout_s)
                    self.stats.jobs_run += 1
                    outcomes.append((result, attempts[pos]))
                    break
                except concurrent.futures.TimeoutError:
                    future.cancel()
                    self.stats.timeouts += 1
                    self.stats.failures += 1
                    outcomes.append((FlowExecutionError(
                        f"job exceeded timeout of {self.timeout_s}s",
                        job_index=indices[pos], seed=self._seed_of(tasks[pos]),
                        attempts=attempts[pos], kind="timeout",
                    ), attempts[pos]))
                    break
                except concurrent.futures.process.BrokenProcessPool:
                    self._restart_pool()
                    pool = self._ensure_pool()
                    # resubmit every not-yet-finished job on the new pool
                    for later in range(pos, len(tasks)):
                        if not futures[later].done() or later == pos:
                            futures[later] = pool.submit(fn, *tasks[later])
                    if attempts[pos] <= self.max_retries:
                        attempts[pos] += 1
                        self.stats.retries += 1
                        future = futures[pos]
                        continue
                    self.stats.failures += 1
                    outcomes.append((FlowExecutionError(
                        f"worker pool broke {attempts[pos]} time(s) on this job",
                        job_index=indices[pos], seed=self._seed_of(tasks[pos]),
                        attempts=attempts[pos], kind="crash",
                    ), attempts[pos]))
                    break
                except Exception as exc:  # noqa: BLE001 - worker raised
                    if attempts[pos] <= self.max_retries:
                        attempts[pos] += 1
                        self.stats.retries += 1
                        future = pool.submit(fn, *tasks[pos])
                        continue
                    self.stats.failures += 1
                    outcomes.append((FlowExecutionError(
                        f"job failed after {attempts[pos]} attempt(s): {exc}",
                        job_index=indices[pos], seed=self._seed_of(tasks[pos]),
                        attempts=attempts[pos], kind="crash",
                    ), attempts[pos]))
                    break
        return outcomes

    @staticmethod
    def _seed_of(task: Tuple) -> int:
        for item in task:
            if isinstance(item, (int,)) and not isinstance(item, bool):
                return item
        return -1
