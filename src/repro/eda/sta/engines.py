"""The two timer front-ends, as thin drivers over the shared kernel.

Two engines analyze the same netlist/placement under the same "laws of
physics" but with different approximations — exactly the situation in
the paper's Sec 3.2 where "analysis miscorrelation can be an unavoidable
consequence of runtime constraints":

- :class:`GraphSTA` — the P&R tool's embedded timer.  Graph-based
  arrival propagation, lumped-Elmore wire delay, worst-slew propagation,
  no crosstalk, no derates.  Cheap.
- :class:`SignoffSTA` — the signoff timer.  Adds coupling-aware wire
  delay (congestion-dependent SI bump), effective-slew propagation,
  late OCV derates on stage delays, and optional path-based analysis
  (PBA) that recovers graph-based (GBA) pessimism on the worst paths.
  Roughly an order of magnitude more work.

Since the :mod:`repro.eda.sta` refactor an engine is just a
:class:`~repro.eda.sta.policy.DelayPolicy` factory: ``analyze`` builds
a fresh :class:`~repro.eda.sta.graph.TimingGraph`, fully propagates it
and reports — bit-identical to the historical monolithic engines —
while ``build_graph`` hands the kernel itself to callers that want to
keep it alive and query timing incrementally (the optimizer, MMMC).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.sta.graph import TimingGraph, TimingTopology
from repro.eda.sta.policy import DelayPolicy, GraphDelayPolicy, SignoffDelayPolicy
from repro.eda.sta.report import Corner, TYPICAL, TimingReport


class _BaseSTA:
    """Shared driver machinery: policy factory + graph construction."""

    engine_name = "base"

    def __init__(self, corner: Corner = TYPICAL):
        self.corner = corner

    def make_policy(self) -> DelayPolicy:
        return DelayPolicy(self.corner)

    def build_graph(
        self,
        netlist: Netlist,
        placement: Placement,
        skews: Optional[Dict[str, float]] = None,
        congestion: Optional[np.ndarray] = None,
        check_hold: bool = False,
        topology: Optional[TimingTopology] = None,
    ) -> TimingGraph:
        """Construct (but do not propagate) this engine's kernel.

        Pass a prebuilt ``topology`` to share levelization/net lengths
        across engines or corners over the same design.
        """
        return TimingGraph(
            netlist,
            placement,
            self.make_policy(),
            skews=skews,
            congestion=congestion,
            check_hold=check_hold,
            topology=topology,
        )

    def analyze(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        skews: Optional[Dict[str, float]] = None,
        congestion: Optional[np.ndarray] = None,
        check_hold: bool = False,
    ) -> TimingReport:
        """Run STA from scratch (the historical one-shot entry point).

        ``skews`` maps flop instance names to clock arrival offsets (ps)
        produced by CTS.  ``congestion`` is a routing-demand map (from
        the global router) used by the signoff engine's SI model.
        ``check_hold`` additionally propagates early (minimum) arrivals
        and populates per-endpoint hold slacks (same-edge check:
        earliest data arrival must exceed capture skew + hold time).
        The clock period must be positive and finite.
        """
        graph = self.build_graph(
            netlist, placement, skews=skews, congestion=congestion, check_hold=check_hold
        )
        graph.full_propagate()
        return graph.report(clock_period)


class GraphSTA(_BaseSTA):
    """The P&R tool's fast embedded timer (graph-based, no SI)."""

    engine_name = "graph"

    def make_policy(self) -> DelayPolicy:
        return GraphDelayPolicy(self.corner)


class SignoffSTA(_BaseSTA):
    """The signoff timer: SI-aware, derated, optionally path-based."""

    engine_name = "signoff"

    def __init__(
        self,
        corner: Corner = TYPICAL,
        si_factor: float = 0.45,
        ocv_derate: float = 1.06,
        pba: bool = True,
        pba_depth_credit: float = 0.8,
    ):
        super().__init__(corner)
        if si_factor < 0:
            raise ValueError("si_factor must be non-negative")
        if ocv_derate < 1.0:
            raise ValueError("late OCV derate must be >= 1")
        self.si_factor = si_factor
        self.ocv_derate = ocv_derate
        self.pba = pba
        self.pba_depth_credit = pba_depth_credit

    def make_policy(self) -> DelayPolicy:
        return SignoffDelayPolicy(
            self.corner,
            si_factor=self.si_factor,
            ocv_derate=self.ocv_derate,
            pba=self.pba,
            pba_depth_credit=self.pba_depth_credit,
        )
