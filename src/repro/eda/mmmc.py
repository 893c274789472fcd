"""Multi-mode multi-corner (MMMC) analysis management.

Signoff evaluates every endpoint at several PVT corners — setup at the
slow corner, hold at the fast corner, plus typical — and merges the
worst case per check.  The missing-corner prediction experiment
(:mod:`repro.core.correlation`) exists precisely because running all
views is expensive; this module is the ground-truth "run them all"
manager it is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.sta import (
    Corner,
    FAST,
    GraphSTA,
    SLOW,
    SignoffSTA,
    TimingReport,
    TimingTopology,
    TYPICAL,
)


@dataclass(frozen=True)
class AnalysisView:
    """One (corner, engine, check) combination to run."""

    name: str
    corner: Corner
    engine: str = "signoff"  # "graph" | "signoff"
    check_hold: bool = False

    def __post_init__(self):
        if self.engine not in ("graph", "signoff"):
            raise ValueError("engine must be 'graph' or 'signoff'")


#: the standard signoff view set: slow setup, fast hold, typical both
DEFAULT_VIEWS = (
    AnalysisView("setup_ss", SLOW, "signoff", check_hold=False),
    AnalysisView("hold_ff", FAST, "signoff", check_hold=True),
    AnalysisView("typ_tt", TYPICAL, "signoff", check_hold=True),
)


@dataclass
class MMMCReport:
    """Merged result of all analysis views."""

    reports: Dict[str, TimingReport] = field(default_factory=dict)

    @property
    def setup_wns(self) -> float:
        """Worst setup slack over all views."""
        return min(r.wns for r in self.reports.values())

    @property
    def hold_wns(self) -> float:
        """Worst hold slack over the hold-checking views."""
        holds = [r.hold_wns for r in self.reports.values()]
        return min(holds) if holds else float("inf")

    @property
    def worst_setup_view(self) -> str:
        return min(self.reports, key=lambda v: self.reports[v].wns)

    @property
    def worst_hold_view(self) -> str:
        return min(self.reports, key=lambda v: self.reports[v].hold_wns)

    @property
    def total_runtime_proxy(self) -> float:
        return sum(r.runtime_proxy for r in self.reports.values())

    def endpoint_worst_slack(self, endpoint: str) -> float:
        """Merged (minimum) setup slack of one endpoint over views."""
        slacks = [
            r.endpoints[endpoint].slack
            for r in self.reports.values()
            if endpoint in r.endpoints
        ]
        if not slacks:
            raise KeyError(f"endpoint {endpoint!r} not found in any view")
        return min(slacks)

    @property
    def clean(self) -> bool:
        return self.setup_wns >= 0 and self.hold_wns >= 0


class MMMCAnalyzer:
    """Run a view set and merge (the signoff "run them all" reference).

    Engines are constructed once per view at ``__init__`` (the Fig 9 /
    Fig 10 loops call ``analyze`` repeatedly — reallocating timers per
    call was pure waste), and one :class:`TimingTopology` — the
    corner-independent part of STA: levelization and net lengths — is
    built per design and shared by every view's kernel; only the
    per-view delay policies differ.
    """

    def __init__(self, views=DEFAULT_VIEWS):
        if not views:
            raise ValueError("need at least one analysis view")
        names = [v.name for v in views]
        if len(set(names)) != len(names):
            raise ValueError("duplicate view names")
        self.views = tuple(views)
        self.engines = {}
        for view in self.views:
            if view.engine == "graph":
                self.engines[view.name] = GraphSTA(corner=view.corner)
            else:
                self.engines[view.name] = SignoffSTA(corner=view.corner)

    def analyze(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        skews: Optional[Dict[str, float]] = None,
        congestion=None,
        topology: Optional[TimingTopology] = None,
    ) -> MMMCReport:
        if (
            topology is None
            or topology.netlist is not netlist
            or topology.placement is not placement
        ):
            topology = TimingTopology(netlist, placement)
        report = MMMCReport()
        for view in self.views:
            graph = self.engines[view.name].build_graph(
                netlist,
                placement,
                skews=skews,
                congestion=congestion,
                check_hold=view.check_hold,
                topology=topology,
            )
            graph.full_propagate()
            report.reports[view.name] = graph.report(clock_period)
        return report
