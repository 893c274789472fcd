"""Design interchange (Verilog/DEF dialects) and MMMC analysis."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eda.io import read_def, read_verilog, write_def, write_verilog
from repro.eda.mmmc import (
    DEFAULT_VIEWS,
    AnalysisView,
    MMMCAnalyzer,
    MMMCReport,
)
from repro.eda.netlist import NetlistError
from repro.eda.synthesis import DesignSpec, synthesize
from repro.eda.sta import SLOW, SignoffSTA


# ------------------------------------------------------------------ verilog
def test_verilog_roundtrip_structural(library, small_netlist):
    text = write_verilog(small_netlist)
    parsed = read_verilog(text, library)
    assert parsed.name == small_netlist.name
    assert parsed.stats() == small_netlist.stats()
    assert parsed.clock_net == small_netlist.clock_net
    assert sorted(parsed.primary_outputs) == sorted(small_netlist.primary_outputs)
    for name, inst in small_netlist.instances.items():
        assert parsed.instances[name].cell.name == inst.cell.name
        assert parsed.instances[name].input_nets == inst.input_nets


def test_verilog_contains_expected_sections(small_netlist):
    text = write_verilog(small_netlist)
    assert text.startswith(f"module {small_netlist.name}")
    assert "endmodule" in text
    assert "input pi0;" in text
    assert "// clock: clk" in text


def test_verilog_bad_input_rejected(library):
    with pytest.raises(NetlistError):
        read_verilog("not verilog at all", library)


def test_verilog_unknown_cell_rejected(library, small_netlist):
    text = write_verilog(small_netlist).replace("NAND2_X1_SVT", "NAND9_X1_SVT")
    with pytest.raises(KeyError):
        read_verilog(text, library)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_property_verilog_roundtrip_any_seed(library, seed):
    spec = DesignSpec("vp", n_gates=40, n_flops=6, n_inputs=5, n_outputs=5, depth=5)
    original = synthesize(spec, library, effort=0.5, seed=seed)
    parsed = read_verilog(write_verilog(original), library)
    assert parsed.stats() == original.stats()


# ---------------------------------------------------------------------- def
def test_def_roundtrip(small_netlist, small_floorplan, small_placement):
    text = write_def(small_placement)
    parsed = read_def(text, small_netlist, small_floorplan)
    for name, (x, y) in small_placement.positions.items():
        px, py = parsed.positions[name]
        assert math.isclose(x, px, abs_tol=1e-3)
        assert math.isclose(y, py, abs_tol=1e-3)
    # same floorplan passed through: HPWL matches
    assert parsed.hpwl() == pytest.approx(small_placement.hpwl(), rel=1e-3)


def test_def_without_floorplan_synthesizes_die(small_netlist, small_placement):
    parsed = read_def(write_def(small_placement), small_netlist)
    assert parsed.floorplan.width == pytest.approx(
        small_placement.floorplan.width, abs=0.01
    )


def test_def_validation(small_netlist, small_placement):
    with pytest.raises(ValueError):
        read_def("garbage", small_netlist)
    text = write_def(small_placement)
    # drop one component
    lines = [l for l in text.splitlines() if not l.strip().startswith("- g0 ")]
    with pytest.raises(ValueError):
        read_def("\n".join(lines), small_netlist)


def test_def_cell_mismatch_rejected(small_netlist, small_placement):
    text = write_def(small_placement)
    g0_cell = small_netlist.instances["g0"].cell.name
    bad = text.replace(f"- g0 {g0_cell}", "- g0 INV_X8_LVT", 1)
    if bad != text:  # only if g0 isn't already that cell
        with pytest.raises(ValueError):
            read_def(bad, small_netlist)


# --------------------------------------------------------------------- mmmc
@pytest.fixture(scope="module")
def mmmc_report(small_netlist, small_placement):
    return MMMCAnalyzer().analyze(small_netlist, small_placement, 1300.0)


def test_mmmc_runs_all_views(mmmc_report):
    assert set(mmmc_report.reports) == {v.name for v in DEFAULT_VIEWS}


def test_mmmc_setup_dominated_by_slow_corner(mmmc_report):
    assert mmmc_report.worst_setup_view == "setup_ss"
    assert mmmc_report.setup_wns == mmmc_report.reports["setup_ss"].wns


def test_mmmc_hold_dominated_by_fast_corner(mmmc_report):
    # early paths are fastest at the fast corner -> hold is tightest there
    assert mmmc_report.reports["hold_ff"].hold_wns <= (
        mmmc_report.reports["typ_tt"].hold_wns
    )
    assert mmmc_report.hold_wns == mmmc_report.reports["hold_ff"].hold_wns


def test_mmmc_merged_endpoint_slack(mmmc_report):
    endpoint = next(iter(mmmc_report.reports["typ_tt"].endpoints))
    merged = mmmc_report.endpoint_worst_slack(endpoint)
    per_view = [
        r.endpoints[endpoint].slack for r in mmmc_report.reports.values()
    ]
    assert merged == min(per_view)
    with pytest.raises(KeyError):
        mmmc_report.endpoint_worst_slack("nope/D")


def test_mmmc_runtime_accumulates(mmmc_report, small_netlist, small_placement):
    single = SignoffSTA(corner=SLOW).analyze(small_netlist, small_placement, 1300.0)
    assert mmmc_report.total_runtime_proxy > single.runtime_proxy


def test_mmmc_clean_flag(small_netlist, small_placement):
    relaxed = MMMCAnalyzer().analyze(small_netlist, small_placement, 5000.0)
    assert relaxed.clean
    brutal = MMMCAnalyzer().analyze(small_netlist, small_placement, 10.0)
    assert not brutal.clean


def test_mmmc_validation():
    with pytest.raises(ValueError):
        MMMCAnalyzer(views=())
    view = AnalysisView("v", SLOW)
    with pytest.raises(ValueError):
        MMMCAnalyzer(views=(view, view))
    with pytest.raises(ValueError):
        AnalysisView("bad", SLOW, engine="spice")


def test_graph_engine_view(small_netlist, small_placement):
    analyzer = MMMCAnalyzer(views=(AnalysisView("g", SLOW, engine="graph"),))
    report = analyzer.analyze(small_netlist, small_placement, 1300.0)
    assert report.reports["g"].engine == "graph"
