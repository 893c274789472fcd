"""Static timing: propagation correctness and engine miscorrelation."""

import numpy as np
import pytest

from repro.eda.netlist import Netlist
from repro.eda.sta import (
    Corner,
    FAST,
    GraphSTA,
    SLOW,
    SignoffSTA,
    TYPICAL,
)
from repro.eda.placement import Placement
from repro.eda.floorplan import Floorplan


@pytest.fixture(scope="module")
def chain(library):
    """in0 -> INV -> INV -> DFF, hand-placeable."""
    nl = Netlist("chain", library)
    nl.add_primary_input("in0")
    clk = nl.add_primary_input("clk")
    nl.set_clock(clk.name)
    g0 = nl.add_instance("g0", library.pick("INV"), ["in0"])
    g1 = nl.add_instance("g1", library.pick("INV"), [g0.output_net])
    nl.add_instance("ff0", library.pick("DFF"), [g1.output_net, "clk"])
    nl.mark_primary_output(g1.output_net)
    nl.validate()
    return nl


@pytest.fixture(scope="module")
def chain_placement(chain):
    fp = Floorplan(width=10.0, height=10.0, utilization=0.5)
    fp.pad_positions["in0"] = (0.0, 5.0)
    fp.pad_positions[chain.instances["g1"].output_net] = (10.0, 5.0)
    positions = {"g0": (2.0, 5.0), "g1": (5.0, 5.0), "ff0": (8.0, 5.0)}
    return Placement(chain, fp, positions)


def test_endpoints_enumerated(chain, chain_placement):
    report = GraphSTA().analyze(chain, chain_placement, clock_period=1000.0)
    assert "ff0/D" in report.endpoints
    assert any(name.endswith("/PO") for name in report.endpoints)


def test_slack_decreases_with_period(chain, chain_placement):
    loose = GraphSTA().analyze(chain, chain_placement, 2000.0)
    tight = GraphSTA().analyze(chain, chain_placement, 100.0)
    assert tight.wns < loose.wns
    assert tight.slack_of("ff0/D") < loose.slack_of("ff0/D")


def test_wns_is_minimum_endpoint_slack(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, 1200.0)
    assert report.wns == min(e.slack for e in report.endpoints.values())
    assert report.tns <= 0.0


def test_arrival_accumulates_along_chain(chain, chain_placement):
    report = GraphSTA().analyze(chain, chain_placement, 1000.0)
    ep = report.endpoints["ff0/D"]
    assert ep.path_depth == 2
    assert ep.arrival > 0


def test_corner_scaling(chain, chain_placement):
    tt = GraphSTA(TYPICAL).analyze(chain, chain_placement, 1000.0)
    ss = GraphSTA(SLOW).analyze(chain, chain_placement, 1000.0)
    ff = GraphSTA(FAST).analyze(chain, chain_placement, 1000.0)
    assert ss.endpoints["ff0/D"].arrival > tt.endpoints["ff0/D"].arrival
    assert ff.endpoints["ff0/D"].arrival < tt.endpoints["ff0/D"].arrival


def test_corner_validation():
    with pytest.raises(ValueError):
        Corner("bad", delay_factor=0.0)


def test_skew_shifts_required_time(chain, chain_placement):
    base = GraphSTA().analyze(chain, chain_placement, 1000.0)
    skewed = GraphSTA().analyze(chain, chain_placement, 1000.0, skews={"ff0": 50.0})
    assert skewed.slack_of("ff0/D") > base.slack_of("ff0/D")


def test_signoff_more_pessimistic_than_graph(small_netlist, small_placement, small_congestion):
    graph = GraphSTA().analyze(small_netlist, small_placement, 1200.0)
    signoff = SignoffSTA(pba=False).analyze(
        small_netlist, small_placement, 1200.0, congestion=small_congestion
    )
    # derates + SI make the signoff GBA arrival strictly later on real paths
    for name, ep in signoff.endpoints.items():
        if ep.path_depth > 0:
            assert ep.arrival > graph.endpoints[name].arrival


def test_pba_recovers_gba_pessimism(small_netlist, small_placement, small_congestion):
    gba = SignoffSTA(pba=False).analyze(
        small_netlist, small_placement, 1200.0, congestion=small_congestion
    )
    pba = SignoffSTA(pba=True).analyze(
        small_netlist, small_placement, 1200.0, congestion=small_congestion
    )
    assert pba.wns >= gba.wns
    assert pba.runtime_proxy > gba.runtime_proxy


def test_si_bump_grows_with_congestion(small_netlist, small_placement):
    calm = SignoffSTA(pba=False).analyze(
        small_netlist, small_placement, 1200.0, congestion=np.zeros((16, 16))
    )
    stormy = SignoffSTA(pba=False).analyze(
        small_netlist, small_placement, 1200.0, congestion=np.full((16, 16), 2.0)
    )
    assert stormy.wns < calm.wns


def test_signoff_costs_more_runtime(small_netlist, small_placement):
    graph = GraphSTA().analyze(small_netlist, small_placement, 1200.0)
    signoff = SignoffSTA().analyze(small_netlist, small_placement, 1200.0)
    assert signoff.runtime_proxy > graph.runtime_proxy


def test_endpoint_features_well_formed(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, 1200.0)
    for ep in report.endpoints.values():
        feats = ep.features
        assert len(feats) == len(ep.FEATURE_NAMES)
        assert all(np.isfinite(f) for f in feats)
        assert ep.path_depth >= 0


def test_paths_recorded_for_endpoints(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, 1200.0)
    assert set(report.paths) == set(report.endpoints)
    for name, path in report.paths.items():
        assert report.endpoints[name].path_depth == len(path)


def test_invalid_period_rejected(small_netlist, small_placement):
    with pytest.raises(ValueError):
        GraphSTA().analyze(small_netlist, small_placement, 0.0)


def test_signoff_parameter_validation():
    with pytest.raises(ValueError):
        SignoffSTA(si_factor=-1.0)
    with pytest.raises(ValueError):
        SignoffSTA(ocv_derate=0.9)
