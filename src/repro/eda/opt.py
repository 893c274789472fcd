"""Timing/power optimization engine: sizing, VT swap, power recovery.

The engine iterates STA and netlist surgery the way a P&R tool's
optDesign step does:

- while timing fails: upsize and LVT-swap cells on the worst paths;
- once timing meets: downsize and HVT-swap cells with abundant slack
  (power recovery), without letting WNS go negative.

Both loops make seed-dependent tie-breaking choices, so near the
maximum achievable frequency the outcome (area, leakage) is noisy —
the mechanism behind the paper's Fig 3.  The miscorrelation experiment
(Sec 3.2) also uses this engine: pessimistic guardbands force it to do
*unneeded* sizing work, costing area and power.

Since the :mod:`repro.eda.sta` refactor the optimizer queries timing
*incrementally*: each surgery pass reports the instances it touched,
and the shared :class:`~repro.eda.sta.graph.TimingGraph` re-propagates
only their forward cones instead of re-running full STA.  Reports (and
therefore every sizing decision) are bit-identical to the historical
full-reanalysis loop; only the ``runtime_proxy`` charged per query
shrinks.  Pass ``incremental=False`` to run the historical loop —
the benchmark uses it as the cost baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.eda.library import DRIVE_STRENGTHS
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.sta import StaStats, TimingGraph, TimingReport, _BaseSTA


@dataclass
class OptResult:
    """Outcome of one optimization run."""

    passes: int
    upsizes: int = 0
    downsizes: int = 0
    vt_swaps: int = 0
    final_report: Optional[TimingReport] = None
    area_delta: float = 0.0
    leakage_delta: float = 0.0
    history: List[float] = field(default_factory=list)  # wns per pass
    sta_stats: Optional[StaStats] = None  # timing-work accounting

    @property
    def total_ops(self) -> int:
        return self.upsizes + self.downsizes + self.vt_swaps


class TimingOptimizer:
    """Slack-driven sizing and VT assignment."""

    def __init__(
        self,
        max_passes: int = 8,
        cells_per_pass: int = 24,
        guardband: float = 0.0,
        recover_power: bool = True,
    ):
        """``guardband`` (ps) is added pessimism: the optimizer treats an
        endpoint as failing unless its slack exceeds the guardband.  The
        miscorrelation experiments sweep this to quantify the cost of
        "aiming low"."""
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        if cells_per_pass < 1:
            raise ValueError("cells_per_pass must be >= 1")
        if guardband < 0:
            raise ValueError("guardband must be non-negative")
        self.max_passes = max_passes
        self.cells_per_pass = cells_per_pass
        self.guardband = guardband
        self.recover_power = recover_power

    def optimize(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        sta: _BaseSTA,
        skews: Optional[Dict[str, float]] = None,
        congestion=None,
        seed: Optional[int] = None,
        incremental: bool = True,
        graph: Optional[TimingGraph] = None,
    ) -> OptResult:
        """Close timing (then recover power) against one timer.

        With ``incremental=True`` (default) the loop keeps one
        :class:`TimingGraph` alive and re-propagates only the cones of
        touched instances between passes; ``incremental=False`` re-runs
        ``sta.analyze`` per pass (the historical behavior, kept as the
        cost baseline).  An already-built ``graph`` for the same
        (netlist, placement) may be passed to skip reconstruction — the
        stage layer threads one through :class:`PipelineState`.
        """
        rng = np.random.default_rng(seed)
        area_before = netlist.total_area
        leak_before = netlist.total_leakage
        result = OptResult(passes=0)

        if incremental:
            if graph is None:
                graph = sta.build_graph(
                    netlist, placement, skews=skews, congestion=congestion
                )
            stats = graph.stats
            graph.full_propagate()
            report = graph.report(clock_period)
        else:
            graph = None
            stats = StaStats()
            report = sta.analyze(netlist, placement, clock_period, skews, congestion)
            stats.full_propagates += 1
            stats.proxy_executed += report.runtime_proxy
            stats.proxy_full_equivalent += report.runtime_proxy

        worst = report.worst_endpoint()
        result.history.append(worst.slack if worst is not None else float("inf"))
        for _ in range(self.max_passes):
            result.passes += 1
            wns = worst.slack if worst is not None else float("inf")
            effective_wns = wns - self.guardband
            if effective_wns < 0:
                touched = self._fix_timing(netlist, placement, report, rng, result)
            elif self.recover_power:
                touched = self._recover_power(netlist, report, rng, result)
            else:
                touched = []
            if not touched:
                break
            if graph is not None:
                graph.update(touched)
                report = graph.report(clock_period)
            else:
                report = sta.analyze(netlist, placement, clock_period, skews, congestion)
                stats.full_propagates += 1
                stats.proxy_executed += report.runtime_proxy
                stats.proxy_full_equivalent += report.runtime_proxy
            worst = report.worst_endpoint()
            result.history.append(worst.slack if worst is not None else float("inf"))
            if (
                worst is not None
                and worst.slack - self.guardband >= 0
                and not self.recover_power
            ):
                break

        result.final_report = report
        result.area_delta = netlist.total_area - area_before
        result.leakage_delta = netlist.total_leakage - leak_before
        result.sta_stats = stats
        return result

    # ------------------------------------------------------------------
    def _output_load(self, netlist, inst, wire_length: float) -> float:
        """Capacitance the instance drives (pins + ``wire_length`` of wire)."""
        lib = netlist.library
        net = netlist.nets[inst.output_net]
        load = sum(netlist.instances[s].cell.input_cap for s, _ in net.sinks)
        load += lib.wire_c_per_um * wire_length
        return load

    def _upsize_gain(self, netlist, inst, load: float, new_cell) -> float:
        """Estimated path-delay change (negative = faster) of a swap,
        given the ``load`` the instance drives.

        Accounts for both the cell's own drive improvement and the
        penalty its larger input pins inflict on predecessor stages —
        blind upsizing on deeply-failing designs otherwise backfires.
        """
        cell = inst.cell
        delta_self = (
            (new_cell.intrinsic_delay - cell.intrinsic_delay)
            + (new_cell.drive_resistance - cell.drive_resistance) * load
        )
        delta_cap = new_cell.input_cap - cell.input_cap
        delta_pred = 0.0
        for net_name in inst.input_nets:
            driver = netlist.nets[net_name].driver
            if driver is not None:
                delta_pred += netlist.instances[driver].cell.drive_resistance * delta_cap
        return delta_self + delta_pred

    def _fix_timing(self, netlist, placement, report, rng, result) -> List[str]:
        """Upsize / LVT-swap path cells, best estimated gain first.

        Returns the names of the instances actually modified (empty
        list when the pass made no progress) so the caller can
        invalidate exactly their timing cones.
        """
        failing = sorted(
            (e for e in report.endpoints.values() if e.slack - self.guardband < 0),
            key=lambda e: e.slack,
        )
        candidates: List[str] = []
        seen = set()
        for ep in failing:
            for inst_name in report.paths.get(ep.endpoint, []):
                if inst_name not in seen:
                    seen.add(inst_name)
                    candidates.append(inst_name)
            if len(candidates) >= self.cells_per_pass * 3:
                break
        if not candidates:
            return []
        rng.shuffle(candidates)
        scored = []
        lib = netlist.library
        wire_lengths = placement.net_lengths(
            [netlist.instances[name].output_net for name in candidates]
        ).tolist()
        for inst_name, wire_length in zip(candidates, wire_lengths):
            inst = netlist.instances[inst_name]
            cell = inst.cell
            load = self._output_load(netlist, inst, wire_length)
            best = None
            drive_idx = DRIVE_STRENGTHS.index(cell.drive)
            if drive_idx + 1 < len(DRIVE_STRENGTHS):
                upsized = lib.resize(cell, DRIVE_STRENGTHS[drive_idx + 1])
                gain = self._upsize_gain(netlist, inst, load, upsized)
                best = (gain, inst_name, upsized, "upsize")
            if cell.vt != "LVT":
                faster = lib.swap_vt(cell, "LVT")
                gain = self._upsize_gain(netlist, inst, load, faster)
                if best is None or gain < best[0]:
                    best = (gain, inst_name, faster, "vt")
            if best is not None and best[0] < -1e-9:
                scored.append(best)
        if not scored:
            return []
        scored.sort(key=lambda t: t[0])
        touched: List[str] = []
        for gain, inst_name, new_cell, kind in scored[: self.cells_per_pass]:
            netlist.replace_cell(inst_name, new_cell)
            touched.append(inst_name)
            if kind == "upsize":
                result.upsizes += 1
            else:
                result.vt_swaps += 1
        return touched

    def fix_hold(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        sta: _BaseSTA,
        skews: Optional[Dict[str, float]] = None,
        max_buffers: int = 64,
        max_passes: int = 10,
        incremental: bool = True,
    ) -> int:
        """Pad short paths with delay buffers until hold is met.

        Each pass re-checks hold and inserts one slow (HVT X1) buffer
        in front of every violating flop's D pin; newly inserted
        buffers sit at the flop's own location.  With ``incremental=
        True`` only the spliced cones are re-propagated between passes.
        Returns the number of buffers inserted.  Raises RuntimeError if
        hold cannot be closed within the buffer budget (a real tool
        would escalate).
        """
        if max_buffers < 1:
            raise ValueError("max_buffers must be >= 1")
        lib = netlist.library
        buffer_cell = lib.pick("BUF", 1, "HVT")
        inserted = 0

        graph: Optional[TimingGraph] = None
        if incremental:
            graph = sta.build_graph(netlist, placement, skews=skews, check_hold=True)
            graph.full_propagate()

        def hold_report():
            if graph is not None:
                return graph.report(clock_period)
            return sta.analyze(netlist, placement, clock_period, skews, check_hold=True)

        for _ in range(max_passes):
            report = hold_report()
            violating = [
                name
                for name, ep in report.endpoints.items()
                if ep.kind == "setup" and ep.hold_slack < 0
            ]
            if not violating:
                return inserted
            touched: List[str] = []
            for endpoint in violating:
                if inserted >= max_buffers:
                    raise RuntimeError(
                        f"hold not closed within {max_buffers} buffers"
                    )
                flop_name = endpoint.split("/")[0]
                flop = netlist.instances[flop_name]
                d_net = flop.input_nets[0]
                buf = netlist.insert_buffer(
                    f"hold_buf_{inserted}", buffer_cell, d_net, flop_name, 0
                )
                placement.positions[buf.name] = placement.positions[flop_name]
                touched.append(buf.name)
                inserted += 1
            if graph is not None:
                graph.update(touched)
        report = hold_report()
        if report.n_hold_violations:
            raise RuntimeError("hold not closed within the pass budget")
        return inserted

    def _recover_power(self, netlist, report, rng, result) -> List[str]:
        """Downsize / HVT-swap cells that only appear on slack-rich paths.

        Returns the names of the instances actually modified.
        """
        margin = self.guardband + 40.0  # only touch comfortably-met paths
        relaxed = [e for e in report.endpoints.values() if e.slack > margin]
        if not relaxed:
            return []
        # instances on any near-critical path are off limits
        critical = set()
        for ep in report.endpoints.values():
            if ep.slack <= margin:
                critical.update(report.paths.get(ep.endpoint, []))
        candidates = [
            name
            for name, inst in netlist.instances.items()
            if name not in critical
            and not inst.cell.is_sequential
            and (inst.cell.drive > 1 or inst.cell.vt != "HVT")
        ]
        if not candidates:
            return []
        rng.shuffle(candidates)
        touched: List[str] = []
        for inst_name in candidates[: self.cells_per_pass]:
            inst = netlist.instances[inst_name]
            cell = inst.cell
            if cell.vt != "HVT":
                netlist.replace_cell(inst_name, netlist.library.swap_vt(cell, "HVT"))
                result.vt_swaps += 1
                touched.append(inst_name)
            elif cell.drive > 1:
                drive_idx = DRIVE_STRENGTHS.index(cell.drive)
                netlist.replace_cell(inst_name, netlist.library.resize(cell, DRIVE_STRENGTHS[drive_idx - 1]))
                result.downsizes += 1
                touched.append(inst_name)
        return touched
