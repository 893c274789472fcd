"""Frozen copy of the pre-refactor monolithic STA engines and optimizer
(the golden reference for the incremental-kernel equivalence tests).

This is the literal ``repro.eda.timing`` module (plus the literal
``TimingOptimizer.optimize``/``fix_hold`` loop bodies from
``repro.eda.opt``) as they stood before the :mod:`repro.eda.sta`
refactor, kept verbatim — same float expressions, same ops accounting,
same report construction order — so the equivalence suite compares the
new kernel against the historical behavior rather than against the
code under test.  Not a test module — no ``test_`` prefix, so pytest
does not collect it.

Original module docstring:

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

Both return a :class:`TimingReport` with per-endpoint slacks plus the
per-endpoint structural features the correlation models consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eda.library import DFF_CLK_TO_Q, DFF_HOLD, DFF_SETUP
from repro.eda.netlist import Netlist
from repro.eda.placement import Placement

#: Default input slew at primary inputs (ps).
PI_SLEW = 20.0
#: Extra load (fF) a primary output must drive.
PO_LOAD = 2.0


@dataclass(frozen=True)
class Corner:
    """A PVT corner: multiplicative factors on delay and wire RC."""

    name: str
    delay_factor: float = 1.0
    wire_factor: float = 1.0

    def __post_init__(self):
        if self.delay_factor <= 0 or self.wire_factor <= 0:
            raise ValueError("corner factors must be positive")


TYPICAL = Corner("tt", 1.0, 1.0)
SLOW = Corner("ss", 1.18, 1.10)
FAST = Corner("ff", 0.85, 0.94)


@dataclass
class EndpointTiming:
    """Timing and structural features at one endpoint.

    Endpoints are DFF D pins (``kind='setup'``) or primary outputs
    (``kind='output'``).  ``features`` feeds the correlation models.
    """

    endpoint: str
    kind: str
    arrival: float
    required: float
    slack: float
    path_depth: int
    path_wire_delay: float
    path_cell_delay: float
    path_max_fanout: int
    path_slew: float
    hold_slack: float = float("inf")  # populated when check_hold=True

    @property
    def features(self) -> List[float]:
        return [
            self.arrival,
            float(self.path_depth),
            self.path_wire_delay,
            self.path_cell_delay,
            float(self.path_max_fanout),
            self.path_slew,
        ]

    FEATURE_NAMES = (
        "arrival",
        "path_depth",
        "path_wire_delay",
        "path_cell_delay",
        "path_max_fanout",
        "path_slew",
    )


@dataclass
class TimingReport:
    """Result of one STA run."""

    engine: str
    corner: str
    clock_period: float
    endpoints: Dict[str, EndpointTiming] = field(default_factory=dict)
    paths: Dict[str, List[str]] = field(default_factory=dict)  # endpoint -> worst-path instances
    runtime_proxy: float = 0.0  # abstract work units ("cost" axis of Fig 8)

    @property
    def wns(self) -> float:
        """Worst negative slack (most negative endpoint slack; +inf if none)."""
        if not self.endpoints:
            return float("inf")
        return min(e.slack for e in self.endpoints.values())

    @property
    def tns(self) -> float:
        """Total negative slack (sum of negative endpoint slacks)."""
        return sum(min(0.0, e.slack) for e in self.endpoints.values())

    @property
    def n_violations(self) -> int:
        return sum(1 for e in self.endpoints.values() if e.slack < 0)

    @property
    def hold_wns(self) -> float:
        """Worst hold slack over setup endpoints (+inf when not checked)."""
        holds = [e.hold_slack for e in self.endpoints.values() if e.kind == "setup"]
        return min(holds) if holds else float("inf")

    @property
    def n_hold_violations(self) -> int:
        return sum(
            1
            for e in self.endpoints.values()
            if e.kind == "setup" and e.hold_slack < 0
        )

    def slack_of(self, endpoint: str) -> float:
        return self.endpoints[endpoint].slack


class _BaseSTA:
    """Shared arrival-propagation machinery."""

    engine_name = "base"

    def __init__(self, corner: Corner = TYPICAL):
        self.corner = corner

    # hooks the two engines specialize -------------------------------
    def _wire_delay(self, length: float, load: float, lib) -> float:
        """Lumped Elmore: R_wire * (C_wire/2 + C_pins)."""
        r = lib.wire_r_per_um * length * self.corner.wire_factor
        c_wire = lib.wire_c_per_um * length * self.corner.wire_factor
        return r * (c_wire / 2.0 + load)

    def _si_bump(self, length: float, congestion: float) -> float:
        return 0.0

    def _stage_derate(self) -> float:
        return 1.0

    def _early_derate(self) -> float:
        """Multiplier on early-path delays for hold analysis (<= 1)."""
        return 1.0

    def _merge_slew(self, slews: List[float]) -> float:
        return max(slews)

    # ------------------------------------------------------------------
    def analyze(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        skews: Optional[Dict[str, float]] = None,
        congestion: Optional[np.ndarray] = None,
        check_hold: bool = False,
    ) -> TimingReport:
        """Run STA.

        ``skews`` maps flop instance names to clock arrival offsets (ps)
        produced by CTS.  ``congestion`` is a routing-demand map (from
        the global router) used by the signoff engine's SI model.
        ``check_hold`` additionally propagates early (minimum) arrivals
        and populates per-endpoint hold slacks (same-edge check:
        earliest data arrival must exceed capture skew + hold time).
        """
        if clock_period <= 0:
            raise ValueError("clock period must be positive")
        lib = netlist.library
        skews = skews or {}
        ops = 0

        # net electrical views
        net_load: Dict[str, float] = {}
        net_len: Dict[str, float] = {}
        for net_name, net in netlist.nets.items():
            if net_name == netlist.clock_net:
                continue
            # explicit left fold (the historical 3.10/3.11 ``sum()``
            # order): Python 3.12's ``sum()`` over floats is compensated
            load = 0.0
            for s, _ in net.sinks:
                load += netlist.instances[s].cell.input_cap
            if net_name in netlist.primary_outputs:
                load += PO_LOAD
            length = placement.net_length(net_name)
            load += lib.wire_c_per_um * length * self.corner.wire_factor
            net_load[net_name] = load
            net_len[net_name] = length

        cong_at = self._congestion_lookup(placement, congestion)

        # arrival, slew, and worst-predecessor per net
        arrival: Dict[str, float] = {}
        slew: Dict[str, float] = {}
        pred: Dict[str, Optional[str]] = {}  # net -> driving instance's worst input net
        wire_d: Dict[str, float] = {}
        for pi in netlist.primary_inputs:
            if pi == netlist.clock_net:
                continue
            arrival[pi] = 0.0
            slew[pi] = PI_SLEW
            pred[pi] = None
        for inst in netlist.sequential_instances():
            out = inst.output_net
            launch = skews.get(inst.name, 0.0)
            q_delay = DFF_CLK_TO_Q * self.corner.delay_factor * self._stage_derate()
            load = net_load.get(out, 0.0)
            cell = inst.cell
            arrival[out] = launch + q_delay + cell.drive_resistance * load * self.corner.delay_factor
            slew[out] = cell.output_slew(load)
            pred[out] = None
            ops += 1

        for name in netlist.combinational_order():
            inst = netlist.instances[name]
            out = inst.output_net
            load = net_load.get(out, 0.0)
            cell = inst.cell
            best_arr = -np.inf
            best_net = None
            in_slews = []
            for net_name in inst.input_nets:
                if net_name == netlist.clock_net:
                    continue
                a_in = arrival.get(net_name, 0.0)
                s_in = slew.get(net_name, PI_SLEW)
                in_slews.append(s_in)
                w_delay = self._wire_delay(net_len.get(net_name, 0.0), cell.input_cap, lib)
                w_delay += self._si_bump(net_len.get(net_name, 0.0), cong_at(net_name))
                cand = a_in + w_delay
                ops += 1
                if cand > best_arr:
                    best_arr = cand
                    best_net = net_name
            s_in = self._merge_slew(in_slews) if in_slews else PI_SLEW
            gate_delay = cell.delay(load, s_in) * self.corner.delay_factor * self._stage_derate()
            arrival[out] = best_arr + gate_delay
            slew[out] = cell.output_slew(load)
            pred[out] = best_net
            wire_d[out] = 0.0

        # early (minimum) arrivals for hold analysis: same propagation
        # with min-merge and the early derate (no SI bump — coupling can
        # only slow the early path in this model, which is pessimistic
        # to ignore, so hold sees the raw wire delay)
        arrival_min: Dict[str, float] = {}
        if check_hold:
            early = self._early_derate()
            for pi in netlist.primary_inputs:
                if pi != netlist.clock_net:
                    arrival_min[pi] = 0.0
            for inst in netlist.sequential_instances():
                out = inst.output_net
                launch = skews.get(inst.name, 0.0)
                load = net_load.get(out, 0.0)
                arrival_min[out] = (
                    launch
                    + (DFF_CLK_TO_Q + inst.cell.drive_resistance * load)
                    * self.corner.delay_factor
                    * early
                )
            for name in netlist.combinational_order():
                inst = netlist.instances[name]
                out = inst.output_net
                load = net_load.get(out, 0.0)
                cell = inst.cell
                fastest = np.inf
                for net_name in inst.input_nets:
                    if net_name == netlist.clock_net:
                        continue
                    a_in = arrival_min.get(net_name, 0.0)
                    w_delay = self._wire_delay(net_len.get(net_name, 0.0), cell.input_cap, lib)
                    fastest = min(fastest, a_in + w_delay * early)
                if np.isinf(fastest):
                    fastest = 0.0
                gate_delay = cell.delay(load, PI_SLEW) * self.corner.delay_factor * early
                arrival_min[out] = fastest + gate_delay
                ops += 1

        report = TimingReport(
            engine=self.engine_name, corner=self.corner.name, clock_period=clock_period
        )

        def trace(net_name: str) -> Tuple[int, float, float, int, List[str]]:
            """Walk worst path backwards: (depth, wire_delay, cell_delay, max_fanout, instances)."""
            depth = 0
            wire_total = 0.0
            fan_max = 0
            insts: List[str] = []
            cur: Optional[str] = net_name
            visited = 0
            while cur is not None and visited < 10_000:
                visited += 1
                fan_max = max(fan_max, netlist.net_fanout(cur))
                wire_total += net_len.get(cur, 0.0) * lib.wire_r_per_um
                driver = netlist.nets[cur].driver
                if driver is None or netlist.instances[driver].cell.is_sequential:
                    break
                insts.append(driver)
                depth += 1
                cur = pred.get(cur)
            return depth, wire_total, 0.0, fan_max, insts

        # endpoints: DFF D inputs
        for inst in netlist.sequential_instances():
            d_net = inst.input_nets[0]
            a = arrival.get(d_net, 0.0)
            w_delay = self._wire_delay(net_len.get(d_net, 0.0), inst.cell.input_cap, lib)
            w_delay += self._si_bump(net_len.get(d_net, 0.0), cong_at(d_net))
            a = a + w_delay
            capture = skews.get(inst.name, 0.0)
            required = clock_period + capture - DFF_SETUP * self.corner.delay_factor
            hold_slack = float("inf")
            if check_hold:
                a_min = arrival_min.get(d_net, 0.0)
                w_min = self._wire_delay(
                    net_len.get(d_net, 0.0), inst.cell.input_cap, lib
                ) * self._early_derate()
                hold_required = capture + DFF_HOLD * self.corner.delay_factor
                hold_slack = (a_min + w_min) - hold_required
            depth, wire_total, _, fan_max, path_insts = trace(d_net)
            ep = EndpointTiming(
                endpoint=f"{inst.name}/D",
                kind="setup",
                arrival=a,
                required=required,
                slack=required - a,
                path_depth=depth,
                path_wire_delay=wire_total,
                path_cell_delay=a - wire_total,
                path_max_fanout=fan_max,
                path_slew=slew.get(d_net, PI_SLEW),
                hold_slack=hold_slack,
            )
            report.endpoints[ep.endpoint] = ep
            report.paths[ep.endpoint] = path_insts
            ops += 2
        # endpoints: primary outputs
        for po in netlist.primary_outputs:
            a = arrival.get(po, 0.0)
            depth, wire_total, _, fan_max, path_insts = trace(po)
            ep = EndpointTiming(
                endpoint=f"{po}/PO",
                kind="output",
                arrival=a,
                required=clock_period,
                slack=clock_period - a,
                path_depth=depth,
                path_wire_delay=wire_total,
                path_cell_delay=a - wire_total,
                path_max_fanout=fan_max,
                path_slew=slew.get(po, PI_SLEW),
            )
            report.endpoints[ep.endpoint] = ep
            report.paths[ep.endpoint] = path_insts
            ops += 2

        report.runtime_proxy = self._runtime_proxy(ops)
        return report

    def _congestion_lookup(self, placement: Placement, congestion: Optional[np.ndarray]):
        if congestion is None:
            return lambda net_name: 0.0
        ny, nx = congestion.shape
        fp = placement.floorplan

        def lookup(net_name: str) -> float:
            net = placement.netlist.nets.get(net_name)
            if net is None or net.driver is None:
                return 0.0
            x, y = placement.positions[net.driver]
            i = min(nx - 1, max(0, int(x / fp.width * nx)))
            j = min(ny - 1, max(0, int(y / fp.height * ny)))
            return float(congestion[j, i])

        return lookup

    def _runtime_proxy(self, ops: int) -> float:
        return float(ops)


class GraphSTA(_BaseSTA):
    """The P&R tool's fast embedded timer (graph-based, no SI)."""

    engine_name = "graph"


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

    def _si_bump(self, length: float, congestion: float) -> float:
        # coupling delta grows with wire length and local routing demand
        return self.si_factor * length * 0.12 * max(0.0, congestion)

    def _stage_derate(self) -> float:
        return self.ocv_derate

    def _merge_slew(self, slews: List[float]) -> float:
        # effective slew: closer to RMS than worst-case (less pessimistic)
        arr = np.asarray(slews)
        return float(np.sqrt(np.mean(arr**2)))

    def _early_derate(self) -> float:
        return 0.92  # early OCV: fast paths may be faster than nominal

    def analyze(self, netlist, placement, clock_period, skews=None, congestion=None,
                check_hold=False):
        report = super().analyze(netlist, placement, clock_period, skews, congestion,
                                 check_hold)
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

    def _runtime_proxy(self, ops: int) -> float:
        return float(ops) * 6.0  # SI + derate bookkeeping cost


# ----------------------------------------------------------------------
# Frozen copy of the pre-refactor TimingOptimizer (repro.eda.opt): the
# full-reanalysis optimize/fix_hold loops, verbatim, driving the frozen
# engines above through their historical ``analyze`` entry point.

from dataclasses import field as _field  # noqa: E402
from repro.eda.library import DRIVE_STRENGTHS  # noqa: E402


@dataclass
class ReferenceOptResult:
    """Outcome of one optimization run (historical field set)."""

    passes: int
    upsizes: int = 0
    downsizes: int = 0
    vt_swaps: int = 0
    final_report: Optional[TimingReport] = None
    area_delta: float = 0.0
    leakage_delta: float = 0.0
    history: List[float] = _field(default_factory=list)  # wns per pass

    @property
    def total_ops(self) -> int:
        return self.upsizes + self.downsizes + self.vt_swaps


class ReferenceTimingOptimizer:
    """Slack-driven sizing and VT assignment (historical full-STA loop)."""

    def __init__(
        self,
        max_passes: int = 8,
        cells_per_pass: int = 24,
        guardband: float = 0.0,
        recover_power: bool = True,
    ):
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
    ) -> ReferenceOptResult:
        rng = np.random.default_rng(seed)
        area_before = netlist.total_area
        leak_before = netlist.total_leakage
        result = ReferenceOptResult(passes=0)

        report = sta.analyze(netlist, placement, clock_period, skews, congestion)
        result.history.append(report.wns)
        for _ in range(self.max_passes):
            result.passes += 1
            effective_wns = report.wns - self.guardband
            if effective_wns < 0:
                changed = self._fix_timing(netlist, placement, report, rng, result)
            elif self.recover_power:
                changed = self._recover_power(netlist, report, rng, result)
            else:
                changed = False
            if not changed:
                break
            report = sta.analyze(netlist, placement, clock_period, skews, congestion)
            result.history.append(report.wns)
            if report.wns - self.guardband >= 0 and not self.recover_power:
                break

        result.final_report = report
        result.area_delta = netlist.total_area - area_before
        result.leakage_delta = netlist.total_leakage - leak_before
        return result

    # ------------------------------------------------------------------
    def _output_load(self, netlist, placement, inst) -> float:
        lib = netlist.library
        net = netlist.nets[inst.output_net]
        load = sum(netlist.instances[s].cell.input_cap for s, _ in net.sinks)
        load += lib.wire_c_per_um * placement.net_length(inst.output_net)
        return load

    def _upsize_gain(self, netlist, placement, inst, new_cell) -> float:
        cell = inst.cell
        load = self._output_load(netlist, placement, inst)
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

    def _fix_timing(self, netlist, placement, report, rng, result) -> bool:
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
            return False
        rng.shuffle(candidates)
        scored = []
        lib = netlist.library
        for inst_name in candidates:
            inst = netlist.instances[inst_name]
            cell = inst.cell
            best = None
            drive_idx = DRIVE_STRENGTHS.index(cell.drive)
            if drive_idx + 1 < len(DRIVE_STRENGTHS):
                upsized = lib.resize(cell, DRIVE_STRENGTHS[drive_idx + 1])
                gain = self._upsize_gain(netlist, placement, inst, upsized)
                best = (gain, inst_name, upsized, "upsize")
            if cell.vt != "LVT":
                faster = lib.swap_vt(cell, "LVT")
                gain = self._upsize_gain(netlist, placement, inst, faster)
                if best is None or gain < best[0]:
                    best = (gain, inst_name, faster, "vt")
            if best is not None and best[0] < -1e-9:
                scored.append(best)
        if not scored:
            return False
        scored.sort(key=lambda t: t[0])
        for gain, inst_name, new_cell, kind in scored[: self.cells_per_pass]:
            netlist.replace_cell(inst_name, new_cell)
            if kind == "upsize":
                result.upsizes += 1
            else:
                result.vt_swaps += 1
        return True

    def fix_hold(
        self,
        netlist: Netlist,
        placement: Placement,
        clock_period: float,
        sta: _BaseSTA,
        skews: Optional[Dict[str, float]] = None,
        max_buffers: int = 64,
        max_passes: int = 10,
    ) -> int:
        if max_buffers < 1:
            raise ValueError("max_buffers must be >= 1")
        lib = netlist.library
        buffer_cell = lib.pick("BUF", 1, "HVT")
        inserted = 0
        for _ in range(max_passes):
            report = sta.analyze(
                netlist, placement, clock_period, skews, check_hold=True
            )
            violating = [
                name
                for name, ep in report.endpoints.items()
                if ep.kind == "setup" and ep.hold_slack < 0
            ]
            if not violating:
                return inserted
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
                inserted += 1
        report = sta.analyze(netlist, placement, clock_period, skews, check_hold=True)
        if report.n_hold_violations:
            raise RuntimeError("hold not closed within the pass budget")
        return inserted

    def _recover_power(self, netlist, report, rng, result) -> bool:
        margin = self.guardband + 40.0  # only touch comfortably-met paths
        relaxed = [e for e in report.endpoints.values() if e.slack > margin]
        if not relaxed:
            return False
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
            return False
        rng.shuffle(candidates)
        changed = False
        for inst_name in candidates[: self.cells_per_pass]:
            inst = netlist.instances[inst_name]
            cell = inst.cell
            if cell.vt != "HVT":
                netlist.replace_cell(inst_name, netlist.library.swap_vt(cell, "HVT"))
                result.vt_swaps += 1
                changed = True
            elif cell.drive > 1:
                drive_idx = DRIVE_STRENGTHS.index(cell.drive)
                netlist.replace_cell(inst_name, netlist.library.resize(cell, DRIVE_STRENGTHS[drive_idx - 1]))
                result.downsizes += 1
                changed = True
        return changed
