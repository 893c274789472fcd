"""Metric records and the common METRICS vocabulary.

Lesson (2) of the paper's METRICS retrospective: "a common METRICS
vocabulary across different vendors is also important.  Design metrics
... reported from one tool should have the same semantics when reported
by another tool."  The vocabulary below is the single source of metric
names; records with unknown names are rejected at transmission time.

Records encode to the XML wire format of the original system.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Optional
from xml.etree import ElementTree

#: metric name -> (unit, description)
VOCABULARY: Dict[str, tuple] = {
    "synth.instances": ("count", "mapped instances after synthesis"),
    "synth.depth": ("stages", "longest combinational path in gates"),
    "synth.area": ("um2", "total standard-cell area"),
    "floorplan.width": ("um", "core width"),
    "floorplan.height": ("um", "core height"),
    "floorplan.utilization": ("ratio", "cell area over core area"),
    "place.hpwl": ("um", "half-perimeter wirelength"),
    "place.density_max": ("ratio", "worst bin utilization"),
    "cts.skew": ("ps", "global clock skew"),
    "cts.buffers": ("count", "clock buffers inserted"),
    "groute.overflow": ("tracks", "total routing demand above capacity"),
    "groute.max_congestion": ("ratio", "worst edge demand/capacity"),
    "groute.wirelength": ("um", "global-route wirelength"),
    "opt.sizing_ops": ("count", "sizing/VT operations performed"),
    "opt.wns_graph": ("ps", "worst negative slack, embedded timer"),
    "droute.final_drvs": ("count", "design-rule violations at completion"),
    "droute.iterations": ("count", "rip-up-and-reroute iterations run"),
    "signoff.wns": ("ps", "worst negative slack, signoff timer"),
    "signoff.tns": ("ps", "total negative slack, signoff timer"),
    "signoff.power": ("uW", "total power at target frequency"),
    "signoff.ir_drop": ("ratio", "worst supply droop fraction"),
    "flow.area": ("um2", "final block area"),
    "flow.achieved_ghz": ("GHz", "achieved clock frequency"),
    "flow.runtime": ("work", "total tool work proxy"),
    "flow.success": ("bool", "timing met and routed clean"),
    "flow.target_ghz": ("GHz", "target clock frequency"),
    # option settings are first-class metrics so the miner can learn them
    "option.synth_effort": ("ratio", "synthesis restructuring effort"),
    "option.utilization": ("ratio", "placement utilization target"),
    "option.cts_effort": ("ratio", "CTS effort"),
    "option.router_effort": ("ratio", "detailed-router effort"),
    "option.opt_guardband": ("ps", "optimizer pessimism margin"),
    # executor events: the parallel campaign layer reports its own
    # per-job bookkeeping (cache tier hits, dedup, retries, timeouts,
    # wall vs. proxy runtime) as first-class records
    "exec.cache_hit_memory": ("bool", "job served from the in-memory result cache"),
    "exec.cache_hit_disk": ("bool", "job served from the on-disk result cache"),
    "exec.dedup": ("bool", "job merged with an identical job in its batch"),
    "exec.attempts": ("count", "execution attempts (0 = served without running)"),
    "exec.retries": ("count", "crash retries consumed by the job"),
    "exec.timeout": ("bool", "job hit the per-job wall-clock timeout"),
    "exec.failure": ("bool", "job produced no FlowResult"),
    "exec.runtime_proxy": ("work", "simulated tool cost of the delivered result"),
    "exec.wall_time": ("s", "wall-clock of the executor batch the job ran in"),
    # stage-pipeline events: with the stage-prefix cache on, each job
    # reports how many pipeline stages were served from cached prefix
    # snapshots vs. actually executed, and the tool cost it really paid
    "exec.stage.hit": ("count", "pipeline stages served from the stage-prefix cache"),
    "exec.stage.miss": ("count", "pipeline stages actually executed by the job"),
    "stage.runtime_proxy": ("work", "tool cost actually executed (suffix only on a "
                                    "prefix resume, less router iterations resumed "
                                    "from a cached trajectory)"),
    # incremental-STA kernel events: the stage layer threads a shared
    # TimingGraph through the pipeline; each job reports how timing was
    # queried (full propagations vs. dirty-cone updates) and the proxy
    # the incremental path avoided paying
    "sta.full": ("count", "full timing-graph propagations run by the job"),
    "sta.incremental.updates": ("count", "incremental dirty-cone timing updates"),
    "sta.incremental.nodes": ("count", "graph nodes re-propagated by incremental updates"),
    "sta.incremental.proxy_saved": ("work", "timing proxy avoided vs. full re-analysis per query"),
    # online-kill events: with a kill policy wired into the executor's
    # stop-callback path, each job reports whether it was terminated
    # mid-route and the router proxy that termination avoided
    "exec.killed.run": ("bool", "job terminated early by the online kill policy"),
    "exec.killed.proxy_saved": ("work", "router proxy avoided by killing the job"),
    # campaign summaries: the DSE engine reports each campaign's
    # headline numbers under one dse-<strategy>-<seed> run id
    "dse.runs": ("count", "runs launched by the campaign"),
    "dse.failed": ("count", "campaign runs that produced no result"),
    "dse.pruned": ("count", "campaign runs detected as pruned mid-route"),
    "dse.killed": ("count", "campaign runs terminated by the kill policy"),
    "dse.kill_proxy_saved": ("work", "router proxy the kill policy avoided"),
    "dse.runtime_proxy": ("work", "summed tool cost of the campaign's delivered results"),
    "dse.best_score": ("objective", "best objective value the campaign found"),
    "dse.surrogate_fit": ("ratio", "training fit of the campaign's last surrogate refit"),
    # router convergence trajectory: one record per rip-up-and-reroute
    # iteration (sequence = iteration index), so the doomed-run
    # predictors can rebuild their training corpora from the warehouse
    "droute.drv_trajectory": ("count", "DRVs remaining after each reroute iteration"),
    # warehouse events: the CLI's ingest/migrate/compact operations
    # report their own bookkeeping as first-class records so warehouse
    # maintenance history is itself queryable
    "warehouse.ingest.records": ("count", "records stored by an ingest operation"),
    "warehouse.ingest.skipped": ("count", "corrupt source lines skipped by an ingest"),
    "warehouse.migrate.records": ("count", "records converted by a JSONL migration"),
    "warehouse.migrate.skipped": ("count", "corrupt source lines skipped by a migration"),
    "warehouse.compact.removed": ("count", "records deleted by retention compaction"),
    "warehouse.compact.campaigns_kept": ("count", "campaigns surviving retention compaction"),
}

#: the executor-event subset of the vocabulary, emitted per job by an
#: instrumented :class:`~repro.core.parallel.FlowExecutor`
EXECUTOR_EVENT_METRICS = (
    "exec.cache_hit_memory",
    "exec.cache_hit_disk",
    "exec.dedup",
    "exec.attempts",
    "exec.retries",
    "exec.timeout",
    "exec.failure",
    "exec.runtime_proxy",
    "exec.wall_time",
    "exec.stage.hit",
    "exec.stage.miss",
    "stage.runtime_proxy",
    "sta.full",
    "sta.incremental.updates",
    "sta.incremental.nodes",
    "sta.incremental.proxy_saved",
    "exec.killed.run",
    "exec.killed.proxy_saved",
)

#: the campaign-summary subset of the vocabulary, emitted once per
#: campaign by the DSE engine (:mod:`repro.dse.engine`)
DSE_CAMPAIGN_METRICS = (
    "dse.runs",
    "dse.failed",
    "dse.pruned",
    "dse.killed",
    "dse.kill_proxy_saved",
    "dse.runtime_proxy",
    "dse.best_score",
    "dse.surrogate_fit",
)

#: the warehouse-maintenance subset of the vocabulary, emitted by the
#: CLI's ``repro metrics ingest|migrate|compact`` operations
WAREHOUSE_METRICS = (
    "warehouse.ingest.records",
    "warehouse.ingest.skipped",
    "warehouse.migrate.records",
    "warehouse.migrate.skipped",
    "warehouse.compact.removed",
    "warehouse.compact.campaigns_kept",
)

# one or more dot-separated lowercase segments after the first —
# executor stage events ("exec.stage.hit") have three
_NAME_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")


def validate_metric_name(name: str) -> str:
    """Return ``name`` if it is in the vocabulary; raise otherwise."""
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"malformed metric name {name!r}")
    if name not in VOCABULARY:
        raise ValueError(f"metric {name!r} is not in the METRICS vocabulary")
    return name


@dataclass(frozen=True)
class MetricRecord:
    """One (design, run, tool, metric, value) observation."""

    design: str
    run_id: str
    tool: str
    metric: str
    value: float
    sequence: int = 0  # transmission order within the run
    attributes: Optional[Dict[str, str]] = field(default=None)

    def __post_init__(self):
        validate_metric_name(self.metric)

    def to_xml(self) -> str:
        """Encode as the METRICS XML wire format."""
        elem = ElementTree.Element(
            "metric",
            design=self.design,
            run=self.run_id,
            tool=self.tool,
            name=self.metric,
            value=repr(float(self.value)),
            seq=str(self.sequence),
        )
        if self.attributes:
            for key, val in sorted(self.attributes.items()):
                ElementTree.SubElement(elem, "attr", name=key, value=val)
        return ElementTree.tostring(elem, encoding="unicode")

    @classmethod
    def from_xml(cls, text: str) -> "MetricRecord":
        elem = ElementTree.fromstring(text)
        if elem.tag != "metric":
            raise ValueError(f"unexpected element {elem.tag!r}")
        attributes = {
            child.get("name"): child.get("value") for child in elem.findall("attr")
        } or None
        return cls(
            design=elem.get("design"),
            run_id=elem.get("run"),
            tool=elem.get("tool"),
            metric=elem.get("name"),
            value=float(elem.get("value")),
            sequence=int(elem.get("seq", "0")),
            attributes=attributes,
        )
