"""Sub-netlist extraction with boundary conversion.

A block keeps its instances and internal nets; every net driven from
outside the block becomes a new primary input, and every inside-driven
net consumed outside (or at the top level) is marked a primary output.
The block is a standalone, valid netlist the ordinary flow can
implement.  Its instances and primary outputs follow the parent's
instance order, never a set's (whose order moves with the hash seed).
"""

from __future__ import annotations

from typing import Iterable, List, Set

from repro.eda.netlist import Netlist


def extract_partition(
    netlist: Netlist, block_instances: Iterable[str], name: str
) -> Netlist:
    """Build the standalone netlist of one block."""
    inside: Set[str] = set(block_instances)
    unknown = inside - set(netlist.instances)
    if unknown:
        raise ValueError(f"unknown instances: {sorted(unknown)[:5]}")
    if not inside:
        raise ValueError("block is empty")

    block = Netlist(name, netlist.library)
    members = [n for n in netlist.instances if n in inside]

    # boundary inputs: nets consumed inside but not driven inside
    boundary_inputs: List[str] = []
    for inst_name in members:
        inst = netlist.instances[inst_name]
        for net_name in inst.input_nets:
            if net_name == netlist.clock_net:
                continue
            driver = netlist.nets[net_name].driver
            if (driver is None or driver not in inside) and net_name not in boundary_inputs:
                boundary_inputs.append(net_name)
    for net_name in sorted(boundary_inputs):
        block.add_primary_input(net_name)
    clock = netlist.clock_net
    if clock is not None:
        block.add_primary_input(clock)
        block.set_clock(clock)

    # instances: flops first with placeholders (feedback), then
    # combinational cells in dependency order
    flops = [n for n in members if netlist.instances[n].cell.is_sequential]
    combs = [n for n in members if not netlist.instances[n].cell.is_sequential]
    placeholder = sorted(boundary_inputs)[0] if boundary_inputs else clock
    if placeholder is None:
        raise ValueError("block has no inputs at all")
    for flop_name in sorted(flops):
        cell = netlist.instances[flop_name].cell
        block.add_instance(flop_name, cell, [placeholder] * cell.n_inputs)

    pending = list(combs)
    while pending:
        still = []
        for inst_name in pending:
            inst = netlist.instances[inst_name]
            if all(n in block.nets for n in inst.input_nets):
                block.add_instance(inst_name, inst.cell, list(inst.input_nets))
            else:
                still.append(inst_name)
        if len(still) == len(pending):
            raise ValueError(f"unresolvable block connectivity: {still[:5]}")
        pending = still

    # rewire flop inputs to their true nets
    for flop_name in sorted(flops):
        original = netlist.instances[flop_name]
        inst = block.instances[flop_name]
        for idx, net_name in enumerate(original.input_nets):
            old = inst.input_nets[idx]
            if old == net_name:
                continue
            block.nets[old].sinks.remove((flop_name, idx))
            inst.input_nets[idx] = net_name
            block.nets[net_name].sinks.append((flop_name, idx))

    # boundary outputs: inside-driven nets seen outside or at top level
    for inst_name in members:
        out_net = netlist.instances[inst_name].output_net
        net = netlist.nets[out_net]
        escapes = out_net in netlist.primary_outputs or any(
            sink not in inside for sink, _ in net.sinks
        )
        if escapes:
            block.mark_primary_output(out_net)

    block.validate()
    return block
