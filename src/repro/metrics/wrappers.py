"""Tool instrumentation: the flow reporting into METRICS.

:class:`InstrumentedFlow` wraps :class:`~repro.eda.flow.SPRFlow` the
way the original METRICS wrapped Cadence Silicon Ensemble: every step's
logfile metrics are extracted and transmitted, along with the option
settings that produced them (options are first-class metrics so the
miner can learn option -> QoR maps).

Run identity is content-derived (:func:`make_run_id`): the id is the
job's result-cache key, a hash of (design, options, seed), so any
process — a pool worker, a fresh interpreter, a resumed campaign —
assigns the *same* id to the same flow point and *different* ids to
different points.  The old module-level counter restarted at zero in
every pool worker, which merged unrelated runs into one bogus run
vector.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.core.parallel.cache import cache_key
from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.netlist import Netlist
from repro.eda.synthesis import DesignSpec
from repro.metrics.schema import (
    DSE_CAMPAIGN_METRICS,
    EXECUTOR_EVENT_METRICS,
    VOCABULARY,
    WAREHOUSE_METRICS,
)
from repro.metrics.server import MetricsServer
from repro.metrics.transmitter import Transmitter

#: flow StepLog metrics -> vocabulary names
_STEP_METRICS = {
    ("synth", "instances"): "synth.instances",
    ("synth", "depth"): "synth.depth",
    ("synth", "area"): "synth.area",
    ("floorplan", "width"): "floorplan.width",
    ("floorplan", "height"): "floorplan.height",
    ("floorplan", "utilization"): "floorplan.utilization",
    ("place", "hpwl"): "place.hpwl",
    ("place", "density_max"): "place.density_max",
    ("cts", "skew"): "cts.skew",
    ("cts", "buffers"): "cts.buffers",
    ("groute", "overflow"): "groute.overflow",
    ("groute", "max_congestion"): "groute.max_congestion",
    ("groute", "wirelength"): "groute.wirelength",
    ("opt", "wns_graph"): "opt.wns_graph",
    ("droute", "final_drvs"): "droute.final_drvs",
    ("droute", "iterations"): "droute.iterations",
    ("signoff", "wns"): "signoff.wns",
    ("signoff", "tns"): "signoff.tns",
    ("signoff", "power"): "signoff.power",
    ("signoff", "ir_drop"): "signoff.ir_drop",
}

_OPTION_METRICS = {
    "synth_effort": "option.synth_effort",
    "utilization": "option.utilization",
    "cts_effort": "option.cts_effort",
    "router_effort": "option.router_effort",
    "opt_guardband": "option.opt_guardband",
}


def make_run_id(design: Union[DesignSpec, Netlist], options: FlowOptions,
                seed: int) -> str:
    """A collision-free, process-independent run id for one flow point.

    ``<design name>-<the first 12 hex digits of the job's cache_key>``:
    the digest covers the design content, every option knob, and the
    seed.  Identical points map to the same id in every process (their
    records merge idempotently — they describe the same run); distinct
    points never collide.
    """
    return run_id_from_key(design.name, cache_key(design, options, seed))


def run_id_from_key(design_name: str, key: str) -> str:
    """:func:`make_run_id` of a point whose ``cache_key`` is ``key``
    (for a caller that already holds the key)."""
    return f"{design_name}-{key[:12]}"


def report_flow_metrics(tx: Transmitter, result: FlowResult) -> None:
    """Transmit one completed flow run's metrics through ``tx``.

    Shared by :class:`InstrumentedFlow` (in-process reporting) and the
    executor's worker-side instrumentation (queue-backed reporting).

    Non-finite values are dropped rather than transmitted: timing
    reports use ``inf`` as a "nothing to report" sentinel (``wns`` with
    no endpoints, ``hold_wns`` when hold wasn't checked), and a sentinel
    is the *absence* of a measurement — serializing it would poison
    mined tables and produce invalid strict JSON downstream.
    """
    for log in result.logs:
        for key, value in log.metrics.items():
            vocab_name = _STEP_METRICS.get((log.step, key))
            if vocab_name is not None and math.isfinite(value):
                tx.send(vocab_name, value)
        # the router's convergence trajectory: one record per reroute
        # iteration, in transmission order, so warehouse consumers (the
        # doomed-run predictors) can rebuild per-run DRV curves with
        # server.series(run_id, "droute.drv_trajectory")
        for drvs in log.series.get("drvs", ()) if log.step == "droute" else ():
            if math.isfinite(drvs):
                tx.send("droute.drv_trajectory", drvs)
    # sizing work is split across several counters in the log
    opt_logs = [log for log in result.logs if log.step == "opt"]
    if opt_logs:
        ops = sum(
            log.metrics.get("upsizes", 0)
            + log.metrics.get("downsizes", 0)
            + log.metrics.get("vt_swaps", 0)
            for log in opt_logs
        )
        tx.send("opt.sizing_ops", ops)
    for name, value in (
        ("flow.area", result.area),
        ("flow.achieved_ghz", result.achieved_ghz),
        ("flow.runtime", result.runtime_proxy),
    ):
        if math.isfinite(value):
            tx.send(name, value)
    tx.send("flow.success", float(result.success))
    tx.send("flow.target_ghz", result.options.target_clock_ghz)
    for attr, vocab_name in _OPTION_METRICS.items():
        tx.send(vocab_name, float(getattr(result.options, attr)))


class InstrumentedFlow:
    """An SP&R flow whose every run reports into a METRICS server."""

    def __init__(self, server: MetricsServer, stop_callback=None):
        self.server = server
        self.flow = SPRFlow(stop_callback=stop_callback)

    def run(
        self,
        spec: DesignSpec,
        options: FlowOptions,
        seed: int = 0,
        run_id: Optional[str] = None,
    ) -> FlowResult:
        result = self.flow.run(spec, options, seed=seed)
        run_id = run_id or make_run_id(spec, options, seed)
        self.report(result, run_id)
        return result

    def report(self, result: FlowResult, run_id: str) -> None:
        """Extract and transmit a completed run's metrics."""
        with Transmitter(self.server, result.design, run_id, tool="spr_flow") as tx:
            report_flow_metrics(tx, result)


def coverage() -> float:
    """Fraction of the vocabulary the instrumentation exercises (flow
    wrappers plus the executor's per-job event records)."""
    produced = set(_STEP_METRICS.values()) | set(_OPTION_METRICS.values())
    produced |= {
        "opt.sizing_ops", "flow.area", "flow.achieved_ghz", "flow.runtime",
        "flow.success", "flow.target_ghz", "droute.drv_trajectory",
    }
    produced |= set(EXECUTOR_EVENT_METRICS)
    produced |= set(DSE_CAMPAIGN_METRICS)
    produced |= set(WAREHOUSE_METRICS)
    return len(produced & set(VOCABULARY)) / len(VOCABULARY)
