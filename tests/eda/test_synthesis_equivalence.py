"""Synthesis kernel vs the frozen per-draw generator.

The live :func:`synthesize` draws each gate input's source level from a
CDF built once per level; the frozen reference
(``tests/eda/synthesis_reference.py``) calls ``rng.choice(level, p=p)``
per draw and ``library.pick`` per gate.  Every netlist must agree
**bitwise**: instance order, cells, input nets, every net's driver and
sink list in order, primary inputs and outputs, and the clock — over
the six benchmark profiles × seeds × efforts, extreme localities, the
shallowest depth, and a gate count below the target depth (whose last
level is empty).
"""

from __future__ import annotations

import pytest

from repro.bench.generators import DRIVER_CLASSES
from repro.eda.synthesis import DesignSpec, synthesize

from .synthesis_reference import reference_synthesize

SEEDS = (1, 7, 23)


def _netlist_bits(netlist):
    """Everything synthesis decides, in the order it decided it."""
    return (
        [(name, inst.cell.name, list(inst.input_nets), inst.output_net)
         for name, inst in netlist.instances.items()],
        [(name, net.driver, list(net.sinks)) for name, net in netlist.nets.items()],
        list(netlist.primary_inputs),
        list(netlist.primary_outputs),
        netlist.clock_net,
    )


def _assert_same_netlist(spec, library, effort, seed):
    live = synthesize(spec, library, effort=effort, seed=seed)
    frozen = reference_synthesize(spec, library, effort=effort, seed=seed)
    assert _netlist_bits(live) == _netlist_bits(frozen), (spec.name, effort, seed)


@pytest.mark.parametrize("effort", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("design", sorted(DRIVER_CLASSES))
def test_profiles_match_reference(library, design, effort):
    for seed in SEEDS:
        _assert_same_netlist(DRIVER_CLASSES[design], library, effort, seed)


@pytest.mark.parametrize("locality", (1.0, 0.05))
def test_extreme_localities_match_reference(library, locality):
    spec = DesignSpec("loc", n_gates=90, n_flops=6, n_inputs=5, n_outputs=4,
                      depth=9, locality=locality)
    for seed in SEEDS:
        for effort in (0.0, 1.0):
            _assert_same_netlist(spec, library, effort, seed)


def test_shallowest_depth_matches_reference(library):
    spec = DesignSpec("shallow", n_gates=40, n_flops=4, n_inputs=3, n_outputs=3,
                      depth=2, locality=0.5)
    for seed in SEEDS:
        _assert_same_netlist(spec, library, 0.5, seed)


def test_empty_last_level_matches_reference(library):
    """Fewer gates than levels: one gate per level until the budget runs
    out, and the last level places nothing (no CDF is built for it)."""
    spec = DesignSpec("sparse", n_gates=5, n_flops=2, n_inputs=2, n_outputs=2,
                      depth=12, locality=0.7)
    for seed in SEEDS:
        netlist = synthesize(spec, library, effort=0.0, seed=seed)
        assert len(netlist.combinational_instances()) == 11  # levels 1..11
        _assert_same_netlist(spec, library, 0.0, seed)


def test_custom_mix_matches_reference(library):
    """A mix in non-library order, with a zero weight, resolves each
    function to the same cell the per-gate lookup picked."""
    spec = DesignSpec("mix", n_gates=120, n_flops=8, n_inputs=6, n_outputs=6,
                      depth=8, locality=0.6,
                      function_mix={"MUX2": 0.3, "INV": 0.0, "XOR2": 0.45,
                                    "BUF": 0.25})
    for seed in SEEDS:
        _assert_same_netlist(spec, library, 0.5, seed)
