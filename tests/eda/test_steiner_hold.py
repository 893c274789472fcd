"""Steiner wire models, hold analysis, buffer insertion and hold fixing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.library import make_default_library
from repro.eda.netlist import Netlist, NetlistError
from repro.eda.opt import TimingOptimizer
from repro.eda.steiner import (
    hpwl_length,
    net_length,
    rmst_length,
    rsmt_length,
    total_wirelength,
)
from repro.eda.sta import GraphSTA, SignoffSTA


# ------------------------------------------------------------------ steiner
def test_two_pin_net_all_models_agree():
    pts = [(0.0, 0.0), (3.0, 4.0)]
    assert hpwl_length(pts) == rmst_length(pts) == rsmt_length(pts) == 7.0


def test_cross_net_steiner_beats_mst():
    # "plus" configuration: the Hanan point (5,5) joins all four pins
    # at cost 20 while the MST needs 30
    pts = [(5, 0), (0, 5), (10, 5), (5, 10)]
    assert rmst_length(pts) == 30.0
    assert rsmt_length(pts) == 20.0
    assert rsmt_length(pts) >= hpwl_length(pts)


def test_degenerate_inputs():
    assert hpwl_length([]) == 0.0
    assert rmst_length([(1.0, 1.0)]) == 0.0
    assert rsmt_length([(1.0, 1.0)]) == 0.0


def test_collinear_points_exact():
    pts = [(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]
    assert rmst_length(pts) == 10.0
    assert rsmt_length(pts) == 10.0


def test_placement_integration(small_placement):
    clock = small_placement.netlist.clock_net
    some_net = next(
        n for n, net in small_placement.netlist.nets.items()
        if n != clock and len(net.sinks) >= 2
    )
    h = net_length(small_placement, some_net, "hpwl")
    s = net_length(small_placement, some_net, "rsmt")
    m = net_length(small_placement, some_net, "rmst")
    assert h <= s + 1e-9 <= m + 1e-9
    with pytest.raises(ValueError):
        net_length(small_placement, some_net, "flute")


def test_total_wirelength_ordering(small_placement):
    assert (
        total_wirelength(small_placement, "hpwl")
        <= total_wirelength(small_placement, "rsmt") + 1e-6
        <= total_wirelength(small_placement, "rmst") + 1e-6
    )


@settings(max_examples=25, deadline=None)
@given(
    points=st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
        ),
        min_size=2,
        max_size=7,
    )
)
def test_property_wire_model_bounds(points):
    """HPWL <= RSMT <= RMST for any pin set."""
    h = hpwl_length(points)
    s = rsmt_length(points)
    m = rmst_length(points)
    assert h <= s + 1e-6
    assert s <= m + 1e-6


# -------------------------------------------------------------------- hold
def _skewed_setup(library):
    """Deterministic hold hazard: ff0 -> INV -> ff1, ff1 captures 120ps late."""
    from repro.eda.floorplan import Floorplan
    from repro.eda.placement import Placement

    nl = Netlist("hold", library)
    nl.add_primary_input("a")
    clk = nl.add_primary_input("clk")
    nl.set_clock(clk.name)
    ff0 = nl.add_instance("ff0", library.pick("DFF"), ["a", "clk"])
    g0 = nl.add_instance("g0", library.pick("INV"), [ff0.output_net])
    nl.add_instance("ff1", library.pick("DFF"), [g0.output_net, "clk"])
    nl.mark_primary_output(g0.output_net)
    nl.validate()
    fp = Floorplan(width=10.0, height=10.0, utilization=0.5)
    fp.pad_positions["a"] = (0.0, 5.0)
    fp.pad_positions[g0.output_net] = (10.0, 5.0)
    pl = Placement(nl, fp, {"ff0": (2.0, 5.0), "g0": (3.0, 5.0), "ff1": (4.0, 5.0)})
    skews = {"ff0": 0.0, "ff1": 120.0}
    return nl, pl, skews


def test_hold_not_checked_by_default(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, 1500.0)
    assert report.hold_wns == float("inf")
    assert report.n_hold_violations == 0


def test_hold_clean_without_skew(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, 1500.0, check_hold=True)
    assert report.hold_wns > 0  # clk-to-q alone exceeds the hold time
    assert report.n_hold_violations == 0


def test_hostile_skew_creates_hold_violations(library):
    nl, pl, skews = _skewed_setup(library)
    report = GraphSTA().analyze(nl, pl, 1500.0, skews=skews, check_hold=True)
    assert report.n_hold_violations > 0
    assert report.hold_wns < 0


def test_signoff_hold_more_pessimistic(library):
    nl, pl, skews = _skewed_setup(library)
    graph = GraphSTA().analyze(nl, pl, 1500.0, skews=skews, check_hold=True)
    signoff = SignoffSTA(pba=False).analyze(nl, pl, 1500.0, skews=skews, check_hold=True)
    # the early derate makes min arrivals earlier -> hold looks worse
    assert signoff.hold_wns <= graph.hold_wns + 1e-9


def test_fix_hold_closes_violations(library):
    nl, pl, skews = _skewed_setup(library)
    before = GraphSTA().analyze(nl, pl, 1500.0, skews=skews, check_hold=True)
    inserted = TimingOptimizer().fix_hold(nl, pl, 1500.0, GraphSTA(), skews=skews)
    assert inserted > 0
    after = GraphSTA().analyze(nl, pl, 1500.0, skews=skews, check_hold=True)
    assert after.n_hold_violations == 0
    assert after.hold_wns >= 0
    # hold buffers must not break setup at this relaxed period, and the
    # padded flop's setup slack must have shrunk (padding slows its path)
    assert after.wns > 0
    assert after.endpoints["ff1/D"].slack < before.endpoints["ff1/D"].slack
    nl.validate()


def test_fix_hold_respects_buffer_budget(library):
    nl, pl, skews = _skewed_setup(library)
    with pytest.raises(RuntimeError):
        TimingOptimizer().fix_hold(nl, pl, 1500.0, GraphSTA(), skews=skews, max_buffers=1)
    with pytest.raises(ValueError):
        TimingOptimizer().fix_hold(nl, pl, 1500.0, GraphSTA(), skews=skews, max_buffers=0)
    # a NaN budget would be no budget at all: the design needs 6 buffers
    for kwargs in ({"max_buffers": float("nan")}, {"max_buffers": 2.5},
                   {"max_buffers": True}, {"max_passes": 2.5},
                   {"max_passes": 0}):
        nl, pl, skews = _skewed_setup(library)
        with pytest.raises(ValueError):
            TimingOptimizer().fix_hold(nl, pl, 1500.0, GraphSTA(), skews=skews,
                                       **kwargs)
        assert len(nl.instances) == len(_skewed_setup(library)[0].instances)


# --------------------------------------------------------- buffer insertion
def test_insert_buffer_rewires_correctly(library):
    nl = Netlist("buf", library)
    nl.add_primary_input("a")
    clk = nl.add_primary_input("clk")
    nl.set_clock(clk.name)
    g0 = nl.add_instance("g0", library.pick("INV"), ["a"])
    g1 = nl.add_instance("g1", library.pick("INV"), [g0.output_net])
    buf = nl.insert_buffer("b0", library.pick("BUF"), g0.output_net, "g1", 0)
    nl.validate()
    assert nl.instances["g1"].input_nets[0] == buf.output_net
    assert ("g1", 0) not in nl.nets[g0.output_net].sinks
    assert ("b0", 0) in nl.nets[g0.output_net].sinks
    assert nl.logic_depth() == 3


def test_insert_buffer_validation(library):
    nl = Netlist("buf2", library)
    nl.add_primary_input("a")
    g0 = nl.add_instance("g0", library.pick("INV"), ["a"])
    with pytest.raises(NetlistError):
        nl.insert_buffer("b", library.pick("NAND2"), "a", "g0", 0)  # 2-input cell
    with pytest.raises(NetlistError):
        nl.insert_buffer("b", library.pick("BUF"), "nope", "g0", 0)
    with pytest.raises(NetlistError):
        nl.insert_buffer("b", library.pick("BUF"), g0.output_net, "g0", 0)  # not a sink
