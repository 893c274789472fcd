"""The timers: one class per delay model over the shared STA kernel.

A :class:`DelayPolicy` is a timer.  It holds everything that differs
between the P&R tool's embedded timer and the signoff timer: wire
delay, SI bump, OCV derates, slew merging, the runtime-proxy cost
model, and any post-processing of the finished report (PBA).  The
propagation *machinery* — levelization, arrival propagation,
dirty-cone updates — lives in :class:`repro.eda.sta.graph.TimingGraph`
and is shared: ``build_graph`` hands the kernel this timer and returns
it unpropagated (the optimizer and MMMC keep it alive and query timing
incrementally), and ``analyze`` builds one, fully propagates it and
reports.  A new timer is one subclass that overrides the hooks.

Two timers analyze the same netlist/placement under the same "laws of
physics" but with different approximations — exactly the situation in
the paper's Sec 3.2 where "analysis miscorrelation can be an
unavoidable consequence of runtime constraints":

- :class:`GraphSTA` — the P&R tool's embedded timer.  Graph-based
  arrival propagation, lumped-Elmore wire delay, worst-slew
  propagation, no crosstalk, no derates.  Cheap.
- :class:`SignoffSTA` — the signoff timer.  Adds coupling-aware wire
  delay (congestion-dependent SI bump), effective-slew propagation,
  late OCV derates on stage delays, and optional path-based analysis
  (PBA) that recovers graph-based (GBA) pessimism on the worst paths.
  Roughly an order of magnitude more work.

The kernel evaluates whole columns at a time, so the delay hooks are
the ``*_batch`` methods (``wire_delay_batch``, ``si_bump_batch``,
``merge_slew_batch``) next to the scalar derates.  The two timers
reproduce the historical ``GraphSTA`` / ``SignoffSTA`` hook methods
(``_wire_delay`` / ``_si_bump`` / ``_stage_derate`` /
``_early_derate`` / ``_merge_slew`` / ``_runtime_proxy``, frozen in
``tests/eda/sta_reference.py``) expression for expression, so reports
stay bit-identical to the pre-refactor engines.  Batch methods keep
the *same association order* as those scalar hooks (numpy elementwise
ops round identically to the scalar float ops).  Segment merges use
``np.maximum.reduceat`` (a maximum is exact in any order) and, for
sums, ``np.bincount`` over segment ids, which adds left to right like
the scalar loops.  ``np.add.reduceat`` is not a left fold: it returns
``a[s] + (a[s+1] + ...)``.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.sta.graph import TimingGraph, TimingTopology
from repro.eda.sta.report import Corner, TYPICAL, TimingReport


class DelayPolicy:
    """Base timer: lumped Elmore, worst-slew, no derates, 1x cost."""

    engine_name = "base"

    def __init__(self, corner: Corner = TYPICAL):
        self.corner = corner

    def build_graph(
        self,
        netlist: Netlist,
        placement: Placement,
        skews: Optional[Dict[str, float]] = None,
        congestion: Optional[np.ndarray] = None,
        check_hold: bool = False,
        topology: Optional[TimingTopology] = None,
    ) -> TimingGraph:
        """Construct (but do not propagate) the kernel over this timer.

        Pass a prebuilt ``topology`` to share levelization/net lengths
        across timers or corners over the same design.
        """
        return TimingGraph(
            netlist,
            placement,
            self,
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
        """Run STA from scratch (the one-shot entry point).

        ``skews`` maps flop instance names to clock arrival offsets (ps)
        produced by CTS.  ``congestion`` is a routing-demand map (from
        the global router) used by the signoff timer's SI model.
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

    def wire_delay_batch(
        self, lengths: np.ndarray, loads: np.ndarray, lib
    ) -> np.ndarray:
        """Lumped Elmore per wire: R_wire * (C_wire/2 + C_pins)."""
        r = lib.wire_r_per_um * lengths * self.corner.wire_factor
        c_wire = lib.wire_c_per_um * lengths * self.corner.wire_factor
        return r * (c_wire / 2.0 + loads)

    def si_bump_batch(
        self, lengths: np.ndarray, congestions: np.ndarray
    ) -> np.ndarray:
        """Crosstalk delta per wire (none in the base model)."""
        return np.zeros_like(lengths)

    def merge_slew_batch(
        self, slews: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Merged input slew per segment of a CSR of input slews (the
        worst slew in the base model).

        ``starts`` are the first-edge offsets of *non-empty* segments
        (the caller substitutes the PI-slew fallback for empty ones);
        ``counts`` are the matching segment lengths.
        """
        return np.maximum.reduceat(slews, starts)

    def stage_derate(self) -> float:
        return 1.0

    def early_derate(self) -> float:
        """Multiplier on early-path delays for hold analysis (<= 1)."""
        return 1.0

    def runtime_proxy(self, ops: int) -> float:
        """Work units charged for ``ops`` propagation operations."""
        return float(ops)

    def full_runtime_proxy(self, ops: int) -> float:
        """Proxy a from-scratch run charging ``ops`` would report.

        Includes report post-processing multipliers (PBA); used by the
        kernel to account how much work an incremental update *avoided*.
        """
        return self.runtime_proxy(ops)

    def finalize_report(self, report: TimingReport) -> TimingReport:
        """Post-process a finished report (PBA recovery etc.)."""
        return report


class GraphSTA(DelayPolicy):
    """The P&R tool's fast embedded timer (graph-based, no SI)."""

    engine_name = "graph"


class SignoffSTA(DelayPolicy):
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

    def si_bump_batch(
        self, lengths: np.ndarray, congestions: np.ndarray
    ) -> np.ndarray:
        # coupling delta grows with wire length and local routing demand
        return self.si_factor * lengths * 0.12 * np.maximum(0.0, congestions)

    def stage_derate(self) -> float:
        return self.ocv_derate

    def merge_slew_batch(
        self, slews: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        # effective slew: the RMS per segment, less pessimistic than the
        # worst case.  The segments tile ``slews`` in order, and
        # np.bincount over segment ids sums each one left to right;
        # np.mean's pairwise summation degenerates to the same left fold
        # below 8 elements (cells have <= 3 inputs), so this is bitwise
        # equal to the historical scalar merge per node.
        segment = np.repeat(np.arange(counts.shape[0]), counts)
        sums = np.bincount(segment, weights=slews**2, minlength=counts.shape[0])
        return np.sqrt(sums / counts)

    def early_derate(self) -> float:
        return 0.92  # early OCV: fast paths may be faster than nominal

    def runtime_proxy(self, ops: int) -> float:
        return float(ops) * 6.0  # SI + derate bookkeeping cost

    def full_runtime_proxy(self, ops: int) -> float:
        proxy = self.runtime_proxy(ops)
        if self.pba:
            proxy *= 1.8
        return proxy

    def finalize_report(self, report: TimingReport) -> TimingReport:
        if self.pba:
            # PBA pass on the worst endpoints: recover per-stage graph
            # pessimism proportional to path depth.
            worst = sorted(report.endpoints.values(), key=lambda e: e.slack)[:50]
            for ep in worst:
                credit = self.pba_depth_credit * ep.path_depth
                ep.arrival -= credit
                ep.slack += credit
            report.runtime_proxy *= 1.8  # PBA is expensive
        return report
