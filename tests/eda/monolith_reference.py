"""Frozen copy of the pre-refactor monolithic SPRFlow (the golden
reference for staged-vs-monolith equivalence tests).

This is the literal ``run``/``implement`` body the staged pipeline
replaced, kept verbatim (same step-seed draw order, same StepLog
construction) so the equivalence suite compares against the historical
behavior rather than against the code under test.  Not a test module —
no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.flow import FlowOptions, FlowResult, StepLog, _default_library
from repro.eda.floorplan import make_floorplan
from repro.eda.netlist import Netlist
from repro.eda.opt import TimingOptimizer
from repro.eda.placement import AnnealingRefiner, QuadraticPlacer
from repro.eda.power import estimate_power, ir_drop_analysis
from repro.eda.routing import DetailedRouter, GlobalRouter
from repro.eda.synthesis import DesignSpec, synthesize
from repro.eda.sta import GraphSTA, SignoffSTA


class MonolithicSPRFlow:
    """The historical single-body flow, verbatim."""

    def __init__(self, stop_callback=None):
        self.stop_callback = stop_callback

    def run(self, spec: DesignSpec, options: FlowOptions, seed: int = 0) -> FlowResult:
        rng = np.random.default_rng(seed)
        step_seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        netlist = synthesize(spec, _default_library(), options.synth_effort, step_seed())
        synth_log = StepLog(
            "synth", dict(netlist.stats(), effort=options.synth_effort),
            runtime_proxy=netlist.n_instances * (1 + 2 * options.synth_effort),
        )
        return self.implement(netlist, options, seed=step_seed(),
                              design_name=spec.name, synth_log=synth_log,
                              result_seed=seed)

    def implement(
        self,
        netlist: Netlist,
        options: FlowOptions,
        seed: int = 0,
        design_name: Optional[str] = None,
        synth_log: Optional[StepLog] = None,
        result_seed: Optional[int] = None,
    ) -> FlowResult:
        rng = np.random.default_rng(seed)
        step_seed = lambda: int(rng.integers(0, 2**31 - 1))  # noqa: E731
        result = FlowResult(
            design=design_name or netlist.name, options=options,
            seed=seed if result_seed is None else result_seed,
        )
        period = options.clock_period_ps
        if synth_log is not None:
            result.logs.append(synth_log)

        # -- floorplan ---------------------------------------------------
        floorplan = make_floorplan(netlist, options.utilization, options.aspect_ratio)
        result.logs.append(
            StepLog("floorplan",
                    {"width": floorplan.width, "height": floorplan.height,
                     "utilization": options.utilization},
                    runtime_proxy=10.0)
        )

        # -- placement ---------------------------------------------------
        placement = QuadraticPlacer(options.spread_strength).place(
            netlist, floorplan, step_seed()
        )
        refiner = AnnealingRefiner(moves_per_cell=options.placer_moves_per_cell)
        hpwl = refiner.refine(placement, step_seed())
        result.hpwl = hpwl
        result.logs.append(
            StepLog("place", {"hpwl": hpwl,
                              "density_max": float(placement.density_map().max())},
                    runtime_proxy=netlist.n_instances * options.placer_moves_per_cell)
        )

        # -- CTS -----------------------------------------------------------
        cts = ClockTreeSynthesizer(options.cts_effort).synthesize(
            netlist, placement, step_seed()
        )
        result.logs.append(
            StepLog("cts", {"skew": cts.global_skew, "buffers": cts.n_buffers,
                            "buffer_area": cts.buffer_area},
                    runtime_proxy=cts.n_buffers * 4.0)
        )

        # -- global route ----------------------------------------------------
        groute = GlobalRouter(tracks_per_um=options.router_tracks_per_um).route(
            placement, step_seed()
        )
        congestion = groute.congestion_map()
        result.logs.append(
            StepLog("groute", {"overflow": groute.overflow,
                               "max_congestion": groute.max_congestion,
                               "wirelength": groute.wirelength},
                    runtime_proxy=groute.wirelength * 0.2)
        )

        # -- timing optimization (embedded graph timer) ----------------------
        optimizer = TimingOptimizer(
            max_passes=options.opt_passes,
            cells_per_pass=options.opt_cells_per_pass,
            guardband=options.opt_guardband,
            recover_power=options.power_recovery,
        )
        opt = optimizer.optimize(
            netlist, placement, period, GraphSTA(), cts.skews, congestion, step_seed()
        )
        result.logs.append(
            StepLog("opt", {"passes": opt.passes, "upsizes": opt.upsizes,
                            "downsizes": opt.downsizes, "vt_swaps": opt.vt_swaps,
                            "wns_graph": opt.final_report.wns},
                    series={"wns": opt.history},
                    runtime_proxy=opt.total_ops * 8.0 + opt.passes * 50.0)
        )

        # -- detailed route ----------------------------------------------------
        drouter = DetailedRouter(
            max_iterations=options.router_max_iterations, effort=options.router_effort
        )
        droute = drouter.route(congestion, step_seed(), self.stop_callback)
        result.final_drvs = droute.final_drvs
        result.routed = droute.success
        result.logs.append(
            StepLog("droute", {"final_drvs": droute.final_drvs,
                               "iterations": droute.iterations_run,
                               "success": float(droute.success)},
                    series={"drvs": [float(v) for v in droute.drvs_per_iteration]},
                    runtime_proxy=droute.iterations_run * 120.0)
        )

        # -- signoff -------------------------------------------------------------
        signoff = SignoffSTA().analyze(netlist, placement, period, cts.skews, congestion)
        result.wns = signoff.wns
        result.tns = signoff.tns
        result.timing_met = signoff.wns >= 0.0
        achieved_period = max(1.0, period - signoff.wns)
        result.achieved_ghz = 1000.0 / achieved_period
        power = estimate_power(netlist, placement, options.target_clock_ghz)
        ir_drop_analysis(netlist, placement, power)
        result.area = netlist.total_area + cts.buffer_area
        result.power = power.total
        result.leakage = power.leakage
        result.logs.append(
            StepLog("signoff", {"wns": signoff.wns, "tns": signoff.tns,
                                "violations": float(signoff.n_violations),
                                "power": power.total,
                                "ir_drop": power.worst_ir_drop},
                    runtime_proxy=signoff.runtime_proxy)
        )
        result.runtime_proxy = sum(log.runtime_proxy for log in result.logs)
        return result
