"""Synthesis generator and floorplanner behaviour."""

import numpy as np
import pytest

from repro.eda.floorplan import Floorplan, Macro, make_floorplan, ROW_HEIGHT
from repro.eda.synthesis import DEFAULT_FUNCTION_MIX, DesignSpec, synthesize


# ---------------------------------------------------------------- synthesis
def test_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec("x", n_gates=0)
    with pytest.raises(ValueError):
        DesignSpec("x", n_flops=0)
    with pytest.raises(ValueError):
        DesignSpec("x", depth=1)
    with pytest.raises(ValueError):
        DesignSpec("x", locality=0.0)
    with pytest.raises(ValueError):
        DesignSpec("x", function_mix={"INV": 0.5})
    # count fields must be integers: a float used to synthesize silently
    # (n_gates, depth) or raise TypeError mid-synthesis (n_flops)
    bad_counts = [{knob: bad}
                  for knob in ("n_gates", "n_flops", "n_inputs", "n_outputs", "depth")
                  for bad in (8.5, 8.0, float("nan"))]
    bad_counts += [{"n_gates": True}, {"n_outputs": True}]
    for bad in bad_counts:
        with pytest.raises(ValueError, match=next(iter(bad))):
            DesignSpec("x", **bad)
    # mix weights must be finite and non-negative, even when they sum to 1
    for mix, function in (({"INV": -0.5, "NAND2": 1.5}, "INV"),
                          ({"INV": float("nan"), "NAND2": 1.0}, "INV"),
                          ({"NAND2": 0.5, "NOR2": float("inf")}, "NOR2")):
        with pytest.raises(ValueError, match=function):
            DesignSpec("x", function_mix=mix)


def test_spec_accepts_numpy_integer_counts(library):
    spec = DesignSpec("np", n_gates=np.int64(60), n_flops=np.int32(4),
                      n_inputs=np.int64(4), n_outputs=np.int16(3), depth=np.int64(5))
    plain = DesignSpec("np", n_gates=60, n_flops=4, n_inputs=4, n_outputs=3, depth=5)
    a = synthesize(spec, library, effort=0.5, seed=2)
    b = synthesize(plain, library, effort=0.5, seed=2)
    assert [(i.cell.name, i.input_nets) for i in a.instances.values()] == \
        [(i.cell.name, i.input_nets) for i in b.instances.values()]


@pytest.mark.parametrize("mix, function", [
    ({"DFF": 0.3, "NAND2": 0.7}, "DFF"),  # used to build flops clocked by data
    ({"FOO": 0.5, "NAND2": 0.5}, "FOO"),  # used to raise KeyError mid-synthesis
])
def test_synthesize_rejects_mix_functions_that_are_not_gates(library, mix, function):
    spec = DesignSpec("mix", n_gates=80, n_flops=4, n_inputs=4, n_outputs=4,
                      depth=6, function_mix=mix)
    with pytest.raises(ValueError, match=function):
        synthesize(spec, library, effort=0.5, seed=1)


def test_synthesis_is_deterministic(library, small_spec):
    a = synthesize(small_spec, library, effort=0.5, seed=11)
    b = synthesize(small_spec, library, effort=0.5, seed=11)
    assert a.stats() == b.stats()
    assert list(a.instances) == list(b.instances)


def test_synthesis_seed_changes_structure(library, small_spec):
    a = synthesize(small_spec, library, effort=0.5, seed=1)
    b = synthesize(small_spec, library, effort=0.5, seed=2)
    # same interface, different internal wiring
    assert a.n_instances == b.n_instances
    wiring_a = [tuple(i.input_nets) for i in a.instances.values()]
    wiring_b = [tuple(i.input_nets) for i in b.instances.values()]
    assert wiring_a != wiring_b


def test_effort_trades_depth_for_area(library):
    spec = DesignSpec("e", n_gates=300, n_flops=24, n_inputs=12, n_outputs=12, depth=20)
    lazy = synthesize(spec, library, effort=0.0, seed=3)
    hard = synthesize(spec, library, effort=1.0, seed=3)
    assert hard.logic_depth() < lazy.logic_depth()
    assert hard.n_instances > lazy.n_instances


def test_effort_bounds(library, small_spec):
    with pytest.raises(ValueError):
        synthesize(small_spec, library, effort=1.5)
    with pytest.raises(ValueError):
        synthesize(small_spec, library, effort=-0.1)


def test_function_mix_respected(library):
    mix = dict(DEFAULT_FUNCTION_MIX)
    # force an XOR-dominated netlist
    for k in mix:
        mix[k] = 0.01
    mix["XOR2"] = 1.0 - 0.01 * (len(mix) - 1)
    spec = DesignSpec("mix", n_gates=200, n_flops=8, n_inputs=8, n_outputs=8,
                      depth=8, function_mix=mix)
    nl = synthesize(spec, library, effort=0.0, seed=4)
    functions = [i.cell.function for i in nl.combinational_instances()]
    assert functions.count("XOR2") / len(functions) > 0.7


# ---------------------------------------------------------------- floorplan
def test_floorplan_area_matches_utilization(small_netlist):
    fp = make_floorplan(small_netlist, utilization=0.5)
    assert fp.area * 0.5 == pytest.approx(small_netlist.total_area, rel=0.1)


def test_floorplan_higher_utilization_smaller_die(small_netlist):
    loose = make_floorplan(small_netlist, utilization=0.5)
    tight = make_floorplan(small_netlist, utilization=0.9)
    assert tight.area < loose.area


def test_floorplan_aspect_ratio(small_netlist):
    tall = make_floorplan(small_netlist, utilization=0.7, aspect_ratio=2.0)
    assert tall.height > tall.width


def test_floorplan_pads_on_boundary(small_netlist, small_floorplan):
    fp = small_floorplan
    for name, (x, y) in fp.pad_positions.items():
        on_edge = (
            x in (0.0, fp.width) or y in (0.0, fp.height)
            or abs(x) < 1e-9 or abs(x - fp.width) < 1e-9
            or abs(y) < 1e-9 or abs(y - fp.height) < 1e-9
        )
        assert on_edge, f"pad {name} at ({x},{y}) not on boundary"
    for pi in small_netlist.primary_inputs:
        assert pi in fp.pad_positions
    for po in small_netlist.primary_outputs:
        assert po in fp.pad_positions


def test_floorplan_row_quantization(small_netlist):
    fp = make_floorplan(small_netlist, utilization=0.7)
    assert fp.height % ROW_HEIGHT == pytest.approx(0.0, abs=1e-9)
    assert fp.n_rows >= 1


def test_floorplan_validation(small_netlist):
    with pytest.raises(ValueError):
        make_floorplan(small_netlist, utilization=0.01)
    with pytest.raises(ValueError):
        make_floorplan(small_netlist, utilization=0.7, aspect_ratio=0.0)


def test_macro_placement_and_overlap():
    fp = Floorplan(width=20.0, height=20.0, utilization=0.7)
    fp.add_macro(Macro("m0", 1.0, 1.0, 5.0, 5.0))
    assert fp.in_macro(3.0, 3.0)
    assert not fp.in_macro(10.0, 10.0)
    with pytest.raises(ValueError):
        fp.add_macro(Macro("m1", 4.0, 4.0, 5.0, 5.0))  # overlaps m0
    with pytest.raises(ValueError):
        fp.add_macro(Macro("m2", 18.0, 18.0, 5.0, 5.0))  # off core
    assert fp.macro_area() == 25.0


def test_macro_overlap_symmetry():
    a = Macro("a", 0, 0, 4, 4)
    b = Macro("b", 2, 2, 4, 4)
    c = Macro("c", 10, 10, 2, 2)
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c) and not c.overlaps(a)


def test_contains(small_floorplan):
    fp = small_floorplan
    assert fp.contains(fp.width / 2, fp.height / 2)
    assert not fp.contains(-1.0, 0.0)
    assert not fp.contains(fp.width + 1.0, 0.0)
