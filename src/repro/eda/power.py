"""Power estimation and a lightweight IR-drop analysis.

Dynamic power sums per-net switching energy (wire + pin caps, activity
weighted); leakage comes straight from the library.  IR drop solves a
coarse resistive-grid relaxation over the placement's power-density
map; the resulting droop map feeds the signoff corner (the
"multiphysics" loop the paper mentions in Sec 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.eda.netlist import Netlist
from repro.eda.placement import Placement, left_sum

VDD = 0.8  # volts
DEFAULT_ACTIVITY = 0.15  # toggle probability per cycle


@dataclass
class PowerReport:
    """Total and per-component power (uW) plus the IR-drop map."""

    dynamic: float
    leakage: float
    clock: float
    ir_drop_map: Optional[np.ndarray] = None

    @property
    def total(self) -> float:
        return self.dynamic + self.leakage + self.clock

    @property
    def worst_ir_drop(self) -> float:
        """Worst supply droop as a fraction of VDD (0 when not analyzed)."""
        if self.ir_drop_map is None:
            return 0.0
        return float(self.ir_drop_map.max())


def estimate_power(
    netlist: Netlist,
    placement: Optional[Placement] = None,
    frequency_ghz: float = 1.0,
    activity: float = DEFAULT_ACTIVITY,
) -> PowerReport:
    """Estimate power at a given clock frequency.

    With a placement, wire capacitance from actual net lengths is
    included; otherwise only pin caps switch.  Energy bookkeeping:
    ``P_dyn = activity * f * (C * V^2 + internal switch energy)``.

    Per-net pin caps add up by ``np.bincount`` and the dynamic total is
    one left fold over the per-net then per-instance terms
    (:func:`~repro.eda.placement.left_sum`): every float operation of
    the per-net loop frozen in ``tests/eda/power_reference.py``, in
    the same order.
    """
    if frequency_ghz <= 0:
        raise ValueError("frequency must be positive")
    if not 0.0 < activity <= 1.0:
        raise ValueError("activity must be in (0, 1]")
    lib = netlist.library
    nets = netlist.nets
    instances = netlist.instances
    clock_net = netlist.clock_net
    signal = [name for name in nets if name != clock_net]
    sinks = [nets[name].sinks for name in signal]
    pin_caps = [instances[s].cell.input_cap for pins in sinks for s, _ in pins]
    pin_nets = np.repeat(np.arange(len(signal)), [len(pins) for pins in sinks])
    cap = np.bincount(pin_nets, weights=pin_caps, minlength=len(signal))
    if placement is not None:
        cap = cap + lib.wire_c_per_um * placement.net_lengths(signal)
    switching = activity * frequency_ghz
    energies = np.array([inst.cell.switch_energy for inst in instances.values()])
    # fF * V^2 * GHz -> uW
    dynamic = left_sum(np.concatenate((switching * cap * VDD * VDD,
                                       switching * energies)))

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


def ir_drop_analysis(
    netlist: Netlist,
    placement: Placement,
    power: PowerReport,
    grid: int = 16,
    sheet_resistance: float = 0.04,
    n_relax: int = 200,
) -> np.ndarray:
    """Relaxation solve of supply droop over a ``grid x grid`` mesh.

    Pads (ideal supplies) sit on the four corners.  Returns the droop
    map as a fraction of VDD; also attaches it to ``power``.

    Each Jacobi sweep reads a bin's four neighbours through index
    arrays built once and adds them up, down, left, right, in that
    order; the source term ``(current * sheet_resistance) * 1e-3`` is
    computed once.  The frozen per-sweep ``np.pad`` loop in
    ``tests/eda/power_reference.py`` must agree bit for bit.
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    density = placement.density_map(grid, grid)
    total_density = density.sum()
    if total_density <= 0:
        drop = np.zeros((grid, grid))
        power.ir_drop_map = drop
        return drop
    # current per bin proportional to its share of total power
    current = density / total_density * (power.total / VDD)  # uA
    source = (current * sheet_resistance * 1e-3).ravel()
    # flat indices of each bin's up, down, left and right neighbour,
    # edge bins repeating themselves (np.pad's "edge" mode, applied once)
    cells = np.pad(np.arange(grid * grid).reshape(grid, grid), 1, mode="edge")
    neighbours = np.stack([cells[:-2, 1:-1], cells[2:, 1:-1],
                           cells[1:-1, :-2], cells[1:-1, 2:]]).reshape(4, -1)
    pads = [0, grid - 1, (grid - 1) * grid, grid * grid - 1]
    drop = np.zeros(grid * grid)
    near = np.empty_like(neighbours, dtype=float)
    for _ in range(n_relax):
        np.take(drop, neighbours, out=near)
        drop = (near[0] + near[1] + near[2] + near[3]) / 4.0 + source
        drop[pads] = 0.0
    drop = drop.reshape(grid, grid) / VDD
    power.ir_drop_map = drop
    return drop
