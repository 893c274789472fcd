"""Netlist generation ("synthesis lite").

The substrate has no RTL front end; instead a :class:`DesignSpec`
describes a design's macro-structure (gate count, register count, logic
depth, fanout character, function mix) and :func:`synthesize` emits a
mapped gate-level netlist with that structure.  Generation is seeded, so
the same spec and seed reproduce the same netlist, while synthesis
*effort* changes real structure (depth vs area tradeoff) the way a logic
restructuring engine would.

Profiles for the designs the paper uses (a PULPino RISC-V core, an
embedded CPU, and artificial "eyechart" layouts) live in
:mod:`repro.bench.generators`.

The generator draws each gate input in two stages: a source level from
a recency-weighted distribution, then a uniform signal of that level.
Gates only append to the level being built, so a level's source
distribution is fixed while it fills; its CDF is built once per level,
with the arithmetic ``Generator.choice`` uses (``p = w / w.sum()``,
``cdf = p.cumsum()``, ``cdf /= cdf[-1]``), and each draw is
``bisect_right(cdf, rng.random())`` — the value and the stream use of
``rng.choice(level, p=p)`` without its per-call validation.  Each
function of the mix resolves to its cell once, before the first draw.
The per-draw generator is frozen as ``tests/eda/synthesis_reference.py``
and every netlist is compared against it bitwise.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.eda.library import Cell, StdCellLibrary
from repro.eda.netlist import Netlist

#: Default mix of combinational functions (probabilities sum to 1).
DEFAULT_FUNCTION_MIX: Dict[str, float] = {
    "INV": 0.16,
    "NAND2": 0.22,
    "NOR2": 0.14,
    "AND2": 0.08,
    "OR2": 0.07,
    "XOR2": 0.09,
    "AOI21": 0.10,
    "OAI21": 0.07,
    "MUX2": 0.07,
}


@dataclass
class DesignSpec:
    """Macro-structure of a design to generate.

    ``depth`` is the *natural* logic depth before restructuring;
    ``locality`` in (0, 1] biases gate inputs toward recent logic levels
    (higher = deeper, more serial logic).  ``function_mix`` overrides the
    default gate-type distribution.
    """

    name: str
    n_gates: int = 600
    n_flops: int = 64
    n_inputs: int = 32
    n_outputs: int = 32
    depth: int = 14
    locality: float = 0.75
    function_mix: Dict[str, float] = field(default_factory=lambda: dict(DEFAULT_FUNCTION_MIX))

    def __post_init__(self):
        for knob in ("n_gates", "n_flops", "n_inputs", "n_outputs", "depth"):
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
        if self.n_gates < 1:
            raise ValueError("n_gates must be >= 1")
        if self.n_flops < 1:
            raise ValueError("n_flops must be >= 1 (designs are sequential)")
        if self.n_inputs < 1 or self.n_outputs < 1:
            raise ValueError("need at least one input and one output")
        if self.depth < 2:
            raise ValueError("depth must be >= 2")
        if not 0.0 < self.locality <= 1.0:
            raise ValueError("locality must be in (0, 1]")
        for function, weight in self.function_mix.items():
            if not (math.isfinite(weight) and weight >= 0):
                raise ValueError(
                    f"function_mix weight of {function!r} must be finite and "
                    f"non-negative, got {weight!r}")
        total = sum(self.function_mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError("function_mix probabilities must sum to 1")


def synthesize(
    spec: DesignSpec,
    library: StdCellLibrary,
    effort: float = 0.5,
    seed: Optional[int] = None,
) -> Netlist:
    """Generate a mapped netlist implementing ``spec``.

    ``effort`` in [0, 1] trades area for depth the way restructuring
    does: effort 0 keeps the natural depth; effort 1 shortens the depth
    by ~35% but inflates gate count by up to ~12% (duplication and
    buffering).  Structure choices are drawn from ``seed``, which is the
    source of run-to-run synthesis noise.  Every function of
    ``spec.function_mix`` must name a combinational cell of ``library``
    (``ValueError`` otherwise, before anything is drawn).
    """
    if not 0.0 <= effort <= 1.0:
        raise ValueError("effort must be in [0, 1]")
    functions = list(spec.function_mix.keys())
    cells = _mix_cells(functions, library)
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
    dff = library.pick("DFF")
    for i in range(spec.n_flops):
        name = f"ff{i}"
        netlist.add_instance(name, dff, [placeholder, clock.name])
        flop_names.append(name)

    # Level-0 signals available as gate inputs.
    signals = [f"pi{i}" for i in range(spec.n_inputs)]
    signals += [netlist.instances[f].output_net for f in flop_names]
    level_of = {s: 0 for s in signals}

    probs = np.array([spec.function_mix[f] for f in functions])
    probs = probs / probs.sum()

    gates_per_level = max(1, n_gates // target_depth)
    gate_idx = 0
    by_level: list = [list(signals)]  # signals available per level
    for level in range(1, target_depth + 1):
        by_level.append([])
        count = gates_per_level if level < target_depth else n_gates - gate_idx
        level_choices = rng.choice(len(functions), p=probs, size=max(0, count))
        if count > 0:
            # gates append only to this level: its sources stay fixed
            cdf = _level_cdf(by_level, level, spec.locality)
        outputs = by_level[level]
        for choice in level_choices.tolist():
            cell = cells[choice]
            inputs = _pick_inputs(by_level, cell.n_inputs, cdf, rng)
            inst = netlist.add_instance(f"g{gate_idx}", cell, inputs)
            signals.append(inst.output_net)
            level_of[inst.output_net] = level
            outputs.append(inst.output_net)
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


def _mix_cells(functions: List[str], library: StdCellLibrary) -> List[Cell]:
    """The cell each mix function maps to, or ``ValueError`` naming a
    function that is not a combinational cell of ``library``."""
    cells = []
    for function in functions:
        try:
            cell = library.pick(function)
        except KeyError:
            raise ValueError(
                f"function_mix names {function!r}, which is not a cell "
                f"function of library {library.name!r}") from None
        if cell.is_sequential:
            raise ValueError(
                f"function_mix names {function!r}, which is a sequential "
                f"cell; the mix draws combinational gates only")
        cells.append(cell)
    return cells


def _level_cdf(by_level, level, locality) -> List[float]:
    """Source-level CDF for gates at ``level``: weight
    ``locality^distance * |level|``, normalized and accumulated exactly
    as ``Generator.choice`` does with ``p``."""
    weights = np.array(
        [locality ** (level - 1 - lv) * len(by_level[lv]) for lv in range(level)]
    )
    total = weights.sum()
    if total <= 0:
        raise ValueError("no candidate signals below the current level")
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def _pick_inputs(by_level, n_inputs, cdf, rng) -> list:
    """Choose input nets with a recency (locality) bias.

    Two-stage draw: pick a source level from ``cdf`` (see
    :func:`_level_cdf`), then a uniform signal within it — O(depth) per
    input instead of O(total signals).  ``bisect_right(cdf, random())``
    is ``rng.choice(level, p=p)``: the same uniform, the same
    ``side="right"`` search.
    """
    random = rng.random
    integers = rng.integers
    picked = []
    seen = set()
    for _ in range(n_inputs):
        for _attempt in range(4):  # a few tries for distinctness
            pool = by_level[bisect_right(cdf, random())]
            candidate = pool[integers(0, len(pool))]
            if candidate not in seen:
                break
        seen.add(candidate)
        picked.append(candidate)
    return picked
