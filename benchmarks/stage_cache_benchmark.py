"""Stage-prefix cache benchmark: a router-knob sweep over a fixed design.

The dominant campaign access pattern (paper Sec 2: exploring a P&R
tool's ">10,000 command-option combinations") perturbs *downstream*
knobs far more often than upstream ones.  This benchmark runs exactly
that: a sweep over detailed-router knobs (``router_effort`` x
``router_max_iterations``) plus a few optimizer points, at one fixed
``(design, seed)``, with and without the stage-prefix cache — every
job shares the synth/floorplan/place/cts/groute prefix, so with the
cache on only the changed suffix executes.  The router itself resumes:
the stage cache keeps each router trajectory under the content of what
the router reads, so the 12 router points share 4 trajectories (one per
effort) and the 4 optimizer points share the default effort's, and each
draws only the iterations past the longest run before it.

The base option point uses a high placement effort
(``placer_moves_per_cell``), the regime where prefix reuse pays most:
saved work scales with the cost of the shared prefix relative to the
uncacheable suffix.  Signoff is cached with the prefix, so a router-knob
point re-runs detailed routing alone; an optimizer point re-runs opt,
signoff and routing.

Checks (exit code 1 on failure):

- results are bit-identical with the cache on and off;
- a serial sweep (``--workers 1``) resumes at least one router
  iteration from a cached trajectory (the smoke sweep's six points
  include caps 10/20/30 at one effort, so a resume is certain);
- full mode: the cache-off campaign executes >= 2x the runtime_proxy
  work of the cache-on campaign;
- smoke mode (``--smoke``): at least one prefix hit is reported
  (each worker's cache serves the jobs it executes, so with more jobs
  than workers a hit is guaranteed by pigeonhole).

Per-job stage events (``exec.stage.hit`` / ``exec.stage.miss`` /
``stage.runtime_proxy``) are collected through METRICS and summarized,
so the saved work is visible the same way campaigns see it.  The saving
is printed in both units: executed ``runtime_proxy`` (gated above) and
each campaign's executor wall time (reported only; it is host-bound).

Usage::

    PYTHONPATH=src python benchmarks/stage_cache_benchmark.py
    PYTHONPATH=src python benchmarks/stage_cache_benchmark.py --smoke --workers 1
    PYTHONPATH=src python benchmarks/stage_cache_benchmark.py --smoke --workers 2
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.generators import design_profile
from repro.core.parallel import FlowExecutor, FlowJob
from repro.eda.flow import FlowOptions
from repro.metrics import MetricsCollector, MetricsServer


def sweep_jobs(design, seed: int, smoke: bool):
    """Router/optimizer-knob sweep at one fixed (design, seed)."""
    base = FlowOptions(placer_moves_per_cell=32)
    points = [
        base.with_(router_effort=effort, router_max_iterations=iterations)
        for effort in (0.3, 0.5, 0.7, 0.9)
        for iterations in (10, 20, 30)
    ]
    if not smoke:
        points += [
            base.with_(opt_passes=passes, opt_guardband=guardband)
            for passes in (4, 8)
            for guardband in (0.0, 20.0)
        ]
    else:
        points = points[:6]
    return [FlowJob(design, options, seed) for options in points]


def run_campaign(jobs, workers: int, stage_cache: bool):
    """One sweep through a fresh executor; returns (results, stats, server)."""
    server = MetricsServer()
    with MetricsCollector(server, cross_process=workers > 1) as collector:
        # whole-run cache off: every job is a distinct option point, so
        # only the stage-prefix tier can save work here
        with FlowExecutor(n_workers=workers, cache=False, collector=collector,
                          stage_cache=stage_cache) as executor:
            results = executor.run_jobs(jobs)
            stats = executor.stats
        collector.flush()
    return results, stats, server


def metric_total(server, name: str) -> float:
    return sum(record.value for record in server.query(metric=name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--design", default="PHY", help="design profile name")
    parser.add_argument("--seed", type=int, default=3, help="flow seed (fixed across the sweep)")
    parser.add_argument("--workers", type=int, default=1, help="executor workers")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI sweep: assert >=1 prefix hit instead of the 2x ratio")
    args = parser.parse_args(argv)

    design = design_profile(args.design)
    jobs = sweep_jobs(design, args.seed, args.smoke)
    print(f"sweep: {len(jobs)} jobs on {design.name} seed={args.seed} "
          f"workers={args.workers} (router/opt knobs only)")

    baseline, stats_off, _ = run_campaign(jobs, args.workers, stage_cache=False)
    cached, stats_on, server = run_campaign(jobs, args.workers, stage_cache=True)

    if baseline != cached:
        print("FAIL: stage cache changed results")
        return 1
    print("results bit-identical with and without the stage cache")

    hits = metric_total(server, "exec.stage.hit")
    misses = metric_total(server, "exec.stage.miss")
    executed = metric_total(server, "stage.runtime_proxy")
    print(f"stage events (METRICS): exec.stage.hit={hits:.0f} "
          f"exec.stage.miss={misses:.0f} stage.runtime_proxy={executed:.0f}")
    print(f"prefix stage hits={stats_on.stage_hits} "
          f"resumed router iterations={stats_on.resumed_iterations}")
    print(f"cache off: {stats_off.summary()}")
    print(f"cache on : {stats_on.summary()}")

    work_off = stats_off.runtime_proxy_executed
    work_on = stats_on.runtime_proxy_executed
    ratio = work_off / work_on if work_on else float("inf")
    print(f"runtime_proxy executed: off={work_off:.0f} on={work_on:.0f} "
          f"-> {ratio:.2f}x less work with the stage cache")
    # reported, not gated: wall time on a shared host is too noisy for a
    # floor, but every saving is stated in both units
    wall_off, wall_on = stats_off.wall_time_s, stats_on.wall_time_s
    wall_ratio = wall_off / wall_on if wall_on else float("inf")
    print(f"wall time: off={wall_off:.2f}s on={wall_on:.2f}s "
          f"-> {wall_ratio:.2f}x less wall time with the stage cache")

    if args.workers == 1 and stats_on.resumed_iterations < 1:
        print("FAIL: the serial sweep resumed no router iteration")
        return 1
    if args.smoke:
        if stats_on.stage_hits < 1 or hits < 1:
            print("FAIL: smoke sweep reported no prefix hits")
            return 1
        print(f"OK: {stats_on.stage_hits} prefix stage hits reported")
        return 0
    if ratio < 2.0:
        print("FAIL: expected the stage cache to save >=2x runtime_proxy work")
        return 1
    print("OK: >=2x work saved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
