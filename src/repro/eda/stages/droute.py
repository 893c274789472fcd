"""Signoff and detailed routing: the last two stages of the pipeline.

Signoff (full STA, power, IR drop, area) reads the optimized netlist,
placement, clock tree and congestion map; detailed routing reads only
the congestion map and never changes it.  Neither reads the other's
output, so signoff runs first and is cacheable: a detailed-router knob
sweep resumes after signoff and re-runs only the router.  The
historical flow routed before it signed off, so the router slots its
``droute`` StepLog in ahead of the ``signoff`` one and
``FlowResult.logs`` keeps the monolith's order (and hence
``runtime_proxy``'s summation order).

The router is the pipeline terminal: its product *is* the finished
:class:`~repro.eda.flow.FlowResult`, which the whole-run
:class:`~repro.core.parallel.ResultCache` already keys, so
``cacheable`` is False: snapshotting post-terminal state would store
every full result twice.  The terminal keeps the ``droute_signoff``
name it had when it also signed off.

What the stage cache keeps for the router instead is its trajectory
(:class:`~repro.eda.routing.RouteTrajectory`).  A run is a prefix of
any longer run on the same congestion map, router settings and seed,
so with a cache the stage resumes the trajectory stored under
:func:`trajectory_key` and draws only the iterations past its end.  The
key hashes what the router reads and nothing else: the congestion
map's bytes and shape, every router setting but the iteration cap (which
only cuts the trajectory) and the stage's seed.  The opt and signoff
knobs are not in it, because whatever they change, the router never
reads.  Iterations served from the trajectory are counted in
``state.droute_resumed``, so the job's executed proxy counts only the
iterations it ran; its ``droute`` log is the fresh run's, bit for bit.
The trajectory carries its generator's state rather than a generator,
so a job whose cap falls inside the stored history builds no generator
and puts nothing back: the entry stays byte for byte as it was.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np

from repro.eda.flow import FlowOptions, StepLog
from repro.eda.power import estimate_power, ir_drop_analysis
from repro.eda.routing import DetailedRouter
from repro.eda.sta import SignoffSTA, StaStats
from repro.eda.stages.base import FlowStage, PipelineState


#: simulated tool cost of one rip-up-and-reroute iteration — the unit
#: the executor's kill accounting converts skipped iterations into
DROUTE_ITERATION_PROXY = 120.0


class SignoffStage(FlowStage):
    name = "signoff"
    knobs = ("target_clock_ghz",)
    reads = ("netlist", "placement", "clock_tree", "congestion", "timing_topology")
    n_seeds = 0  # signoff is deterministic given its artifacts

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        result = state.result
        period = options.clock_period_ps

        # a fresh full propagation (signoff must see the whole design),
        # but over the shared topology; its work lands in sta_stats so
        # the executor's sta.* metrics cover the whole timing story
        signoff_graph = SignoffSTA().build_graph(
            state.netlist, state.placement,
            skews=state.clock_tree.skews, congestion=state.congestion,
            topology=state.timing_topology,
        )
        signoff_graph.full_propagate()
        signoff = signoff_graph.report(period)
        if state.sta_stats is None:
            state.sta_stats = StaStats()
        state.sta_stats.add(signoff_graph.stats)
        result.wns = signoff.wns
        result.tns = signoff.tns
        result.timing_met = signoff.wns >= 0.0
        achieved_period = max(1.0, period - signoff.wns)
        result.achieved_ghz = 1000.0 / achieved_period
        power = estimate_power(state.netlist, state.placement, options.target_clock_ghz)
        ir_drop_analysis(state.netlist, state.placement, power)
        result.area = state.netlist.total_area + state.clock_tree.buffer_area
        result.power = power.total
        result.leakage = power.leakage
        result.logs.append(
            StepLog("signoff", {"wns": signoff.wns, "tns": signoff.tns,
                                "violations": float(signoff.n_violations),
                                "power": power.total,
                                "ir_drop": power.worst_ir_drop},
                    runtime_proxy=signoff.runtime_proxy)
        )


def trajectory_key(drouter: DetailedRouter, congestion: np.ndarray, seed: int) -> str:
    """The stage-cache key of the trajectory ``drouter`` draws on
    ``congestion`` from ``seed`` (see module docstring)."""
    cong = np.ascontiguousarray(congestion, dtype=float)
    digest = hashlib.sha256(cong.tobytes())
    digest.update(repr((cong.shape, drouter.trajectory_settings, int(seed))).encode())
    return "droute:" + digest.hexdigest()


class DrouteSignoffStage(FlowStage):
    """Detailed routing, the terminal stage (see module docstring)."""

    name = "droute_signoff"
    knobs = ("router_effort", "router_max_iterations")
    reads = ("congestion",)
    n_seeds = 1
    cacheable = False

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        result = state.result
        drouter = DetailedRouter(
            max_iterations=options.router_max_iterations, effort=options.router_effort
        )
        if cache is None:
            droute = drouter.route(state.congestion, seeds[0], stop_callback)
        else:
            key = trajectory_key(drouter, state.congestion, seeds[0])
            trajectory = cache.get(key, self.name)
            if trajectory is None:
                trajectory = drouter.start(state.congestion, seeds[0])
            known = len(trajectory.history)
            droute = drouter.route(state.congestion, seeds[0], stop_callback,
                                   trajectory=trajectory)
            ran = len(trajectory.history) - known
            state.droute_resumed = droute.iterations_run - ran
            if ran:
                cache.put(key, self.name, trajectory)
        state.droute = droute
        result.final_drvs = droute.final_drvs
        result.routed = droute.success
        # signoff, the stage before this one, logged last; the monolith
        # logged routing ahead of it
        result.logs.insert(len(result.logs) - 1, StepLog(
            "droute", {"final_drvs": droute.final_drvs,
                       "iterations": droute.iterations_run,
                       "success": float(droute.success)},
            series={"drvs": [float(v) for v in droute.drvs_per_iteration]},
            runtime_proxy=droute.iterations_run * DROUTE_ITERATION_PROXY))
