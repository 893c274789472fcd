"""Frozen copy of the scalar power kernels (the golden reference for the
power, IR-drop and density equivalence tests).

This is the literal per-object implementation the array kernels
replaced: ``repro.eda.power.estimate_power`` with its per-net loop,
``ir_drop_analysis`` with one ``np.pad`` copy per relaxation sweep, and
``Placement.density_map``/``net_length``/``hpwl`` with their per-instance
and per-net loops.  Two edits keep it a fixed oracle: the shared
floor-and-clamp binning is inlined as ``_bin`` (as in
``routing_reference``), and the per-net pin-cap ``sum()`` is written as
the explicit left fold it was before Python 3.12 compensated ``sum()``
over floats.  Not a test module — no ``test_`` prefix, so pytest does
not collect it.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.eda.netlist import Netlist
from repro.eda.placement import Placement
from repro.eda.power import DEFAULT_ACTIVITY, VDD, PowerReport


def _bin(coord: float, extent: float, n_bins: int) -> int:
    """Floor-based clamped binning, frozen (same rule as grid.bin_index)."""
    return min(n_bins - 1, max(0, int(math.floor(coord / extent * n_bins))))


def _points_for(placement: Placement, net_name: str) -> List[Tuple[float, float]]:
    net = placement.netlist.nets[net_name]
    pts = []
    if net.driver is not None:
        pts.append(placement.positions[net.driver])
    for inst_name, _ in net.sinks:
        pts.append(placement.positions[inst_name])
    pad = placement.floorplan.pad_positions.get(net_name)
    if pad is not None:
        pts.append(pad)
    return pts


def reference_net_length(placement: Placement, net_name: str) -> float:
    """HPWL of one net (um)."""
    pts = _points_for(placement, net_name)
    if len(pts) < 2:
        return 0.0
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    return (max(xs) - min(xs)) + (max(ys) - min(ys))


def reference_hpwl(placement: Placement) -> float:
    """Total half-perimeter wirelength over all signal nets (um)."""
    total = 0.0
    for net_name in placement.netlist.nets:
        if net_name == placement.netlist.clock_net:
            continue
        pts = _points_for(placement, net_name)
        if len(pts) < 2:
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def reference_density_map(placement: Placement, nx: int = 16, ny: int = 16) -> np.ndarray:
    """Cell-area utilization per bin (1.0 = bin completely full)."""
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be >= 1")
    grid = np.zeros((ny, nx))
    bx = placement.floorplan.width / nx
    by = placement.floorplan.height / ny
    for name, (x, y) in placement.positions.items():
        i = _bin(x, placement.floorplan.width, nx)
        j = _bin(y, placement.floorplan.height, ny)
        grid[j, i] += placement.netlist.instances[name].cell.area
    return grid / (bx * by)


def reference_estimate_power(
    netlist: Netlist,
    placement: Optional[Placement] = None,
    frequency_ghz: float = 1.0,
    activity: float = DEFAULT_ACTIVITY,
) -> PowerReport:
    """Estimate power at a given clock frequency."""
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    if not 0.0 < activity <= 1.0:
        raise ValueError("activity must be in (0, 1]")
    lib = netlist.library
    dynamic = 0.0
    for net_name, net in netlist.nets.items():
        if net_name == netlist.clock_net:
            continue
        cap = 0.0
        for s, _ in net.sinks:
            cap += netlist.instances[s].cell.input_cap
        if placement is not None:
            cap += lib.wire_c_per_um * reference_net_length(placement, net_name)
        # fF * V^2 * GHz -> uW
        dynamic += activity * frequency_ghz * cap * VDD * VDD
    for inst in netlist.instances.values():
        dynamic += activity * frequency_ghz * inst.cell.switch_energy

    # the clock net toggles every cycle and reaches every flop
    n_flops = len(netlist.sequential_instances())
    clock_cap = n_flops * 1.2
    if placement is not None:
        clock_cap += lib.wire_c_per_um * 2.0 * (
            placement.floorplan.width + placement.floorplan.height
        )
    clock = frequency_ghz * clock_cap * VDD * VDD

    leakage = netlist.total_leakage
    return PowerReport(dynamic=dynamic, leakage=leakage, clock=clock)


def reference_ir_drop_analysis(
    netlist: Netlist,
    placement: Placement,
    power: PowerReport,
    grid: int = 16,
    sheet_resistance: float = 0.04,
    n_relax: int = 200,
) -> np.ndarray:
    """Relaxation solve of supply droop over a ``grid x grid`` mesh."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    density = reference_density_map(placement, grid, grid)
    total_density = density.sum()
    if total_density <= 0:
        drop = np.zeros((grid, grid))
        power.ir_drop_map = drop
        return drop
    # current per bin proportional to its share of total power
    current = density / total_density * (power.total / VDD)  # uA
    drop = np.zeros((grid, grid))
    pads = [(0, 0), (0, grid - 1), (grid - 1, 0), (grid - 1, grid - 1)]
    for _ in range(n_relax):
        padded = np.pad(drop, 1, mode="edge")
        neighbor_avg = (
            padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        ) / 4.0
        drop = neighbor_avg + current * sheet_resistance * 1e-3
        for j, i in pads:
            drop[j, i] = 0.0
    drop = drop / VDD
    power.ir_drop_map = drop
    return drop
