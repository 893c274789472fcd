"""Pluggable delay-model policies for the STA kernel.

A :class:`DelayPolicy` is everything that differs between the P&R
tool's embedded timer and the signoff timer: wire delay, SI bump,
OCV derates, slew merging, the runtime-proxy cost model, and any
post-processing of the finished report (PBA).  The propagation
*machinery* — levelization, arrival propagation, dirty-cone updates —
lives in :class:`repro.eda.sta.graph.TimingGraph` and is shared; the
policy is the only thing a new engine needs to supply.

The two concrete policies reproduce the historical ``GraphSTA`` /
``SignoffSTA`` hook methods (``_wire_delay`` / ``_si_bump`` /
``_stage_derate`` / ``_early_derate`` / ``_merge_slew`` /
``_runtime_proxy``) expression-for-expression, so reports stay
bit-identical to the pre-refactor engines (enforced against
``tests/eda/sta_reference.py``).

Each scalar hook has a ``*_batch`` companion consumed by the
vectorized kernel.  Batch methods are written with the *same
association order* as their scalar counterparts (numpy elementwise
ops round identically to the scalar float ops).  Segment merges use
``np.maximum.reduceat`` (a maximum is exact in any order) and, for
sums, ``np.bincount`` over segment ids, which adds left to right like
the scalar loops.  ``np.add.reduceat`` is not a left fold: it returns
``a[s] + (a[s+1] + ...)``.  That is what keeps vectorized results
bitwise equal to scalar ones.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.eda.sta.report import Corner, TYPICAL, TimingReport


class DelayPolicy:
    """Base delay model: lumped Elmore, worst-slew, no derates, 1x cost."""

    engine_name = "base"

    def __init__(self, corner: Corner = TYPICAL):
        self.corner = corner

    def wire_delay(self, length: float, load: float, lib) -> float:
        """Lumped Elmore: R_wire * (C_wire/2 + C_pins)."""
        r = lib.wire_r_per_um * length * self.corner.wire_factor
        c_wire = lib.wire_c_per_um * length * self.corner.wire_factor
        return r * (c_wire / 2.0 + load)

    def si_bump(self, length: float, congestion: float) -> float:
        return 0.0

    def wire_delay_batch(
        self, lengths: np.ndarray, loads: np.ndarray, lib
    ) -> np.ndarray:
        """Vectorized :meth:`wire_delay` (same expressions, same order)."""
        r = lib.wire_r_per_um * lengths * self.corner.wire_factor
        c_wire = lib.wire_c_per_um * lengths * self.corner.wire_factor
        return r * (c_wire / 2.0 + loads)

    def si_bump_batch(
        self, lengths: np.ndarray, congestions: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`si_bump`."""
        return np.zeros_like(lengths)

    def merge_slew_batch(
        self, slews: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-segment :meth:`merge_slew` over a CSR of input slews.

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

    def merge_slew(self, slews: List[float]) -> float:
        return max(slews)

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


class GraphDelayPolicy(DelayPolicy):
    """The P&R tool's fast embedded timer (graph-based, no SI)."""

    engine_name = "graph"


class SignoffDelayPolicy(DelayPolicy):
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

    def si_bump(self, length: float, congestion: float) -> float:
        # coupling delta grows with wire length and local routing demand
        return self.si_factor * length * 0.12 * max(0.0, congestion)

    def si_bump_batch(
        self, lengths: np.ndarray, congestions: np.ndarray
    ) -> np.ndarray:
        return self.si_factor * lengths * 0.12 * np.maximum(0.0, congestions)

    def stage_derate(self) -> float:
        return self.ocv_derate

    def merge_slew(self, slews: List[float]) -> float:
        # effective slew: closer to RMS than worst-case (less pessimistic)
        arr = np.asarray(slews)
        return float(np.sqrt(np.mean(arr**2)))

    def merge_slew_batch(
        self, slews: np.ndarray, starts: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        # RMS per segment.  The segments tile ``slews`` in order, and
        # np.bincount over segment ids sums each one left to right;
        # np.mean's pairwise summation degenerates to the same left
        # fold below 8 elements (cells have <= 3 inputs), so this is
        # bitwise equal to the scalar merge_slew per node.
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
