"""Frozen copy of the per-draw synthesis generator (the golden reference
for the synthesis equivalence tests).

This is the literal ``synthesize``/``_pick_inputs`` body the cached
level-CDF kernel replaced: every source-level draw is a
``rng.choice(level, p=level_weights)`` call that re-validates ``p`` and
rebuilds its CDF, and every gate looks its cell up with
``library.pick``.  It takes the live :class:`DesignSpec` (only its
fields are read), so spec validation is not part of the oracle.  Not a
test module — no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.eda.library import StdCellLibrary
from repro.eda.netlist import Netlist
from repro.eda.synthesis import DesignSpec


def reference_synthesize(
    spec: DesignSpec,
    library: StdCellLibrary,
    effort: float = 0.5,
    seed: Optional[int] = None,
) -> Netlist:
    """The historical generator, draw for draw."""
    if not 0.0 <= effort <= 1.0:
        raise ValueError("effort must be in [0, 1]")
    rng = np.random.default_rng(seed)
    netlist = Netlist(spec.name, library)

    for i in range(spec.n_inputs):
        netlist.add_primary_input(f"pi{i}")
    clock = netlist.add_primary_input("clk")
    netlist.set_clock(clock.name)

    # Restructuring: higher effort -> shallower target depth, more gates.
    target_depth = max(3, int(round(spec.depth * (1.0 - 0.35 * effort))))
    n_gates = int(round(spec.n_gates * (1.0 + 0.12 * effort)))

    # DFF outputs are combinational sources. Their D inputs are wired
    # after the combinational cloud exists (two-pass construction).
    flop_names = []
    placeholder = "pi0"  # temporary D connection, rewired below
    for i in range(spec.n_flops):
        name = f"ff{i}"
        netlist.add_instance(name, library.pick("DFF"), [placeholder, clock.name])
        flop_names.append(name)

    # Level-0 signals available as gate inputs.
    signals = [f"pi{i}" for i in range(spec.n_inputs)]
    signals += [netlist.instances[f].output_net for f in flop_names]
    level_of = {s: 0 for s in signals}

    functions = list(spec.function_mix.keys())
    probs = np.array([spec.function_mix[f] for f in functions])
    probs = probs / probs.sum()

    gates_per_level = max(1, n_gates // target_depth)
    gate_idx = 0
    by_level: list = [list(signals)]  # signals available per level
    for level in range(1, target_depth + 1):
        by_level.append([])
        count = gates_per_level if level < target_depth else n_gates - gate_idx
        level_choices = rng.choice(len(functions), p=probs, size=max(0, count))
        for k in range(max(0, count)):
            function = functions[int(level_choices[k])]
            cell = library.pick(function)
            inputs = reference_pick_inputs(by_level, cell.n_inputs, level,
                                           spec.locality, rng)
            name = f"g{gate_idx}"
            inst = netlist.add_instance(name, cell, inputs)
            signals.append(inst.output_net)
            level_of[inst.output_net] = level
            by_level[level].append(inst.output_net)
            gate_idx += 1

    # Wire flop D inputs and primary outputs to late (deep) signals.
    deep = [s for s in signals if level_of[s] >= max(1, target_depth - 2)]
    if not deep:
        deep = signals[-spec.n_flops:]
    for flop in flop_names:
        d_net = deep[int(rng.integers(0, len(deep)))]
        inst = netlist.instances[flop]
        old = inst.input_nets[0]
        netlist.nets[old].sinks.remove((flop, 0))
        inst.input_nets[0] = d_net
        netlist.nets[d_net].sinks.append((flop, 0))
    for i in range(spec.n_outputs):
        netlist.mark_primary_output(deep[int(rng.integers(0, len(deep)))])

    netlist.validate()
    return netlist


def reference_pick_inputs(by_level, n_inputs, level, locality, rng) -> list:
    """Choose input nets with a recency (locality) bias.

    Two-stage draw: pick a source level with weight
    ``locality^distance * |level|``, then a uniform signal within it —
    O(depth) per input instead of O(total signals).
    """
    level_weights = np.array(
        [locality ** (level - 1 - lv) * len(by_level[lv]) for lv in range(level)]
    )
    total = level_weights.sum()
    if total <= 0:
        raise ValueError("no candidate signals below the current level")
    level_weights = level_weights / total
    picked = []
    seen = set()
    for _ in range(n_inputs):
        for _attempt in range(4):  # a few tries for distinctness
            lv = int(rng.choice(level, p=level_weights))
            pool = by_level[lv]
            candidate = pool[int(rng.integers(0, len(pool)))]
            if candidate not in seen:
                break
        seen.add(candidate)
        picked.append(candidate)
    return picked
