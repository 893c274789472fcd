"""Project-level resource scheduling (paper footnote 4, ref [1]).

"Project- and enterprise-level schedule and resource optimizations,
supported by accurate estimates, have the potential to achieve
substantial design cost reductions."  Tool runs compete for machines
and tool licenses; this module simulates non-preemptive scheduling of a
job set under a resource pool and compares dispatch policies —
longest-processing-time-first (LPT, the classic makespan heuristic),
FIFO, and random — optionally with runtime estimates supplied by the
rope predictors.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Job:
    """One tool run: a runtime and the resources it holds while running."""

    name: str
    runtime: float
    licenses: Dict[str, int] = field(default_factory=dict)
    machines: int = 1

    def __post_init__(self):
        if self.runtime <= 0:
            raise ValueError(f"job {self.name}: runtime must be positive")
        if self.machines < 1:
            raise ValueError(f"job {self.name}: needs at least one machine")
        for kind, count in self.licenses.items():
            if count < 1:
                raise ValueError(f"job {self.name}: license count for {kind} must be >= 1")


@dataclass(frozen=True)
class ResourcePool:
    """What the project owns: machines and per-kind license counts."""

    machines: int
    licenses: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.machines < 1:
            raise ValueError("pool needs at least one machine")

    def can_ever_run(self, job: Job) -> bool:
        if job.machines > self.machines:
            return False
        return all(
            self.licenses.get(kind, 0) >= count
            for kind, count in job.licenses.items()
        )


@dataclass
class ScheduleEntry:
    job: Job
    start: float
    end: float


@dataclass
class Schedule:
    """A completed simulation: per-job start/end times."""

    entries: List[ScheduleEntry]
    policy: str

    @property
    def makespan(self) -> float:
        return max((e.end for e in self.entries), default=0.0)

    @property
    def mean_waiting_time(self) -> float:
        if not self.entries:
            return 0.0
        return float(np.mean([e.start for e in self.entries]))

    def utilization(self, pool: ResourcePool) -> float:
        """Machine-time used over machine-time available."""
        if self.makespan == 0:
            return 0.0
        used = sum(e.job.machines * e.job.runtime for e in self.entries)
        return used / (pool.machines * self.makespan)


def schedule_jobs(
    jobs: Sequence[Job],
    pool: ResourcePool,
    policy: str = "lpt",
    seed: Optional[int] = None,
) -> Schedule:
    """Non-preemptive event-driven scheduling simulation.

    ``policy``: "lpt" (longest runtime first — the makespan heuristic),
    "spt" (shortest first — minimizes mean waiting), "fifo" (submission
    order) or "random".  Jobs that can never fit the pool raise.
    """
    for job in jobs:
        if not pool.can_ever_run(job):
            raise ValueError(f"job {job.name} can never run on this pool")
    if policy == "lpt":
        queue = sorted(jobs, key=lambda j: -j.runtime)
    elif policy == "spt":
        queue = sorted(jobs, key=lambda j: j.runtime)
    elif policy == "fifo":
        queue = list(jobs)
    elif policy == "random":
        rng = np.random.default_rng(seed)
        queue = list(jobs)
        rng.shuffle(queue)
    else:
        raise ValueError(f"unknown policy {policy!r}")

    free_machines = pool.machines
    free_licenses = dict(pool.licenses)
    running: List = []  # heap of (end_time, counter, job)
    entries: List[ScheduleEntry] = []
    now = 0.0
    counter = 0

    def try_start() -> None:
        nonlocal free_machines, counter
        progressed = True
        while progressed:
            progressed = False
            for i, job in enumerate(queue):
                fits = job.machines <= free_machines and all(
                    free_licenses.get(kind, 0) >= count
                    for kind, count in job.licenses.items()
                )
                if fits:
                    queue.pop(i)
                    free_machines -= job.machines
                    for kind, count in job.licenses.items():
                        free_licenses[kind] -= count
                    heapq.heappush(running, (now + job.runtime, counter, job))
                    counter += 1
                    entries.append(ScheduleEntry(job, now, now + job.runtime))
                    progressed = True
                    break

    try_start()
    while running:
        end_time, _, job = heapq.heappop(running)
        now = end_time
        free_machines += job.machines
        for kind, count in job.licenses.items():
            free_licenses[kind] += count
        try_start()
    if queue:
        raise RuntimeError("scheduler stalled with jobs still queued")
    return Schedule(entries=entries, policy=policy)


def compare_policies(
    jobs: Sequence[Job],
    pool: ResourcePool,
    seed: int = 0,
) -> Dict[str, float]:
    """Makespan per policy (the ref-[1] cost-reduction lever)."""
    return {
        policy: schedule_jobs(jobs, pool, policy, seed=seed).makespan
        for policy in ("lpt", "spt", "fifo", "random")
    }


def jobs_from_flow_estimates(
    estimates: Dict[str, float],
    pnr_license: str = "pnr",
) -> List[Job]:
    """Wrap per-run runtime estimates (e.g. from a rope predictor) as
    schedulable jobs, each holding one P&R license."""
    return [
        Job(name=name, runtime=max(1e-6, runtime), licenses={pnr_license: 1})
        for name, runtime in estimates.items()
    ]
