"""The partitioned flow and its TAT / predictability accounting.

Fig 4(b)'s quantitative claims on this substrate:

- **turnaround time** — blocks implement concurrently, so the parallel
  TAT is the *slowest block* plus a top-level assembly charge
  proportional to the cut, instead of the whole-design runtime;
- **predictability** — smaller subproblems are better-solved: the
  run-to-run spread of the achieved frequency shrinks under
  partitioning (:func:`predictability_study`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.partition.extract import extract_partition
from repro.core.partition.kway import cut_nets, kway_partition
from repro.eda.flow import FlowOptions, FlowResult, SPRFlow, _default_library
from repro.eda.synthesis import DesignSpec, synthesize

#: top-level route/assemble cost per cut net (runtime-proxy units)
ASSEMBLY_COST_PER_CUT = 6.0


@dataclass
class PartitionedResult:
    """Outcome of a partitioned implementation."""

    design: str
    n_partitions: int
    blocks: List[FlowResult]
    n_cut_nets: int
    flat: Optional[FlowResult] = None

    @property
    def success(self) -> bool:
        return all(b.success for b in self.blocks)

    @property
    def area(self) -> float:
        return sum(b.area for b in self.blocks)

    @property
    def power(self) -> float:
        return sum(b.power for b in self.blocks)

    @property
    def wns(self) -> float:
        """Worst slack over blocks (inter-block paths are registered at
        block boundaries in this methodology — a "freedom from choice")."""
        return min(b.wns for b in self.blocks)

    @property
    def achieved_ghz(self) -> float:
        return min(b.achieved_ghz for b in self.blocks)

    @property
    def assembly_cost(self) -> float:
        return self.n_cut_nets * ASSEMBLY_COST_PER_CUT

    @property
    def tat_parallel(self) -> float:
        """Wall-clock proxy with all blocks running concurrently."""
        return max(b.runtime_proxy for b in self.blocks) + self.assembly_cost

    @property
    def tat_serial(self) -> float:
        """Compute proxy (what the license bill sees)."""
        return sum(b.runtime_proxy for b in self.blocks) + self.assembly_cost

    def speedup_vs_flat(self) -> float:
        """Flat-flow TAT over partitioned parallel TAT (>1 = faster)."""
        if self.flat is None:
            raise ValueError("no flat reference attached")
        return self.flat.runtime_proxy / self.tat_parallel


def partitioned_implementation(
    spec: DesignSpec,
    options: FlowOptions,
    n_partitions: int = 4,
    seed: int = 0,
    run_flat_reference: bool = False,
) -> PartitionedResult:
    """Synthesize once, partition, implement every block independently."""
    rng = np.random.default_rng(seed)
    netlist = synthesize(
        spec, _default_library(), options.synth_effort,
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    blocks = kway_partition(netlist, n_partitions, seed=int(rng.integers(0, 2**31 - 1)))
    cut = cut_nets(netlist, blocks)

    flow = SPRFlow()
    block_results = []
    for i, block_instances in enumerate(blocks):
        sub = extract_partition(netlist, block_instances, f"{spec.name}_p{i}")
        block_results.append(
            flow.run(sub, options, seed=int(rng.integers(0, 2**31 - 1)))
        )

    flat = None
    if run_flat_reference:
        flat = flow.run(spec, options, seed=seed)

    return PartitionedResult(
        design=spec.name,
        n_partitions=n_partitions,
        blocks=block_results,
        n_cut_nets=len(cut),
        flat=flat,
    )


def predictability_study(
    spec: DesignSpec,
    options: FlowOptions,
    n_partitions: int = 4,
    n_seeds: int = 6,
    seed0: int = 0,
) -> Dict[str, float]:
    """Run-to-run outcome spread at a fixed target: flat vs partitioned.

    Measured like-for-like at the same target frequency: the relative
    area spread (CV), the WNS spread, the timing-success rate, and the
    mean parallel-TAT ratio — Fig 4(b)'s "Predictability up, Margins
    down, TAT down" quantified.  Partitioned areas average noise over
    blocks, so their CV shrinks; smaller blocks also close timing more
    reliably near the wall.
    """
    if n_seeds < 3:
        raise ValueError("need at least 3 seeds for a spread estimate")
    flow = SPRFlow()
    flat_area, flat_wns, flat_tat, flat_met = [], [], [], []
    part_area, part_wns, part_tat, part_met = [], [], [], []
    for s in range(n_seeds):
        flat = flow.run(spec, options, seed=seed0 + s)
        flat_area.append(flat.area)
        flat_wns.append(flat.wns)
        flat_tat.append(flat.runtime_proxy)
        flat_met.append(flat.timing_met)
        part = partitioned_implementation(
            spec, options, n_partitions, seed=seed0 + 1000 + s
        )
        part_area.append(part.area)
        part_wns.append(part.wns)
        part_tat.append(part.tat_parallel)
        part_met.append(part.wns >= 0)
    return {
        "flat_area_cv": float(np.std(flat_area, ddof=1) / np.mean(flat_area)),
        "partitioned_area_cv": float(np.std(part_area, ddof=1) / np.mean(part_area)),
        "flat_wns_std": float(np.std(flat_wns, ddof=1)),
        "partitioned_wns_std": float(np.std(part_wns, ddof=1)),
        "flat_success_rate": float(np.mean(flat_met)),
        "partitioned_success_rate": float(np.mean(part_met)),
        "mean_tat_ratio": float(np.mean(flat_tat) / np.mean(part_tat)),
    }
