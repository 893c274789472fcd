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
from typing import Dict, Optional, Union

from repro.core.parallel.cache import cache_key
from repro.eda.flow import FlowOptions, FlowResult, SPRFlow
from repro.eda.netlist import Netlist
from repro.eda.routing import SUCCESS_DRV_THRESHOLD
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

#: (vocabulary name, FlowOptions field) of every option a flow run
#: reports, in the miner's feature-column order: the one table the
#: reporter, the miner, the DSE surrogate and the ``miner`` strategy
#: map settings through
OPTION_METRICS = (
    ("option.synth_effort", "synth_effort"),
    ("option.utilization", "utilization"),
    ("option.cts_effort", "cts_effort"),
    ("option.router_effort", "router_effort"),
    ("option.opt_guardband", "opt_guardband"),
    ("flow.target_ghz", "target_clock_ghz"),
)


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
    for vocab_name, attr in OPTION_METRICS:
        if vocab_name.startswith("option."):
            tx.send(vocab_name, float(getattr(result.options, attr)))


class RunVectorView:
    """A run vector read under :class:`~repro.eda.flow.FlowResult`'s
    QoR names: the inverse of :func:`report_flow_metrics`.

    An objective (:mod:`repro.dse.objective`) reads a live result and
    a collected run alike through this view, so a run gets the same
    score whether it is ranked in a campaign, trained on by the DSE
    surrogate or mined from the warehouse.  Reading a field the vector
    lacks raises ``KeyError``.  ``wns`` reads ``inf`` when the vector
    has no ``signoff.wns``: that is the "no endpoints" sentinel the
    reporter drops.

    ``routed`` is derived: a run that met timing but did not succeed
    did not route, and a run that missed timing routed when it ended
    under the DRV threshold and was not killed (``exec.killed.run``,
    which only a collecting executor records).  Known blind spot: a
    run stopped at the router's last iteration saves nothing, so the
    executor does not count it as a kill; if its DRVs are under the
    threshold, the view calls it routed while the result does not.
    """

    __slots__ = ("_vector",)

    def __init__(self, vector: Dict[str, float]):
        self._vector = vector

    def _read(self, metric: str) -> float:
        try:
            return float(self._vector[metric])
        except KeyError:
            raise KeyError(f"{metric} not collected") from None

    @property
    def area(self) -> float:
        return self._read("flow.area")

    @property
    def power(self) -> float:
        return self._read("signoff.power")

    @property
    def achieved_ghz(self) -> float:
        return self._read("flow.achieved_ghz")

    @property
    def final_drvs(self) -> float:
        return self._read("droute.final_drvs")

    @property
    def success(self) -> bool:
        return self._read("flow.success") > 0.5

    @property
    def wns(self) -> float:
        return float(self._vector.get("signoff.wns", math.inf))

    @property
    def timing_met(self) -> bool:
        return self.wns >= 0.0

    @property
    def routed(self) -> bool:
        return self.success or (
            not self.timing_met
            and self.final_drvs < SUCCESS_DRV_THRESHOLD
            and self._vector.get("exec.killed.run", 0.0) != 1.0)


class InstrumentedFlow:
    """An SP&R flow whose every run reports into a METRICS server."""

    def __init__(self, server: MetricsServer):
        self.server = server
        self.flow = SPRFlow()

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
    produced = set(_STEP_METRICS.values())
    produced |= {vocab_name for vocab_name, _ in OPTION_METRICS}
    produced |= {
        "opt.sizing_ops", "flow.area", "flow.achieved_ghz", "flow.runtime",
        "flow.success", "flow.target_ghz", "droute.drv_trajectory",
    }
    produced |= set(EXECUTOR_EVENT_METRICS)
    produced |= set(DSE_CAMPAIGN_METRICS)
    produced |= set(WAREHOUSE_METRICS)
    return len(produced & set(VOCABULARY)) / len(VOCABULARY)
