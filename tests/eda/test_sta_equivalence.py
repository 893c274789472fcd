"""Frozen-reference equivalence for the repro.eda.sta refactor.

The kernel rewrite (TimingGraph + delay policies + thin engine drivers)
must be *bit-identical* to the pre-refactor monolithic engines — same
floats, same endpoint order, same runtime proxy, same optimizer
decisions — enforced here against ``tests/eda/sta_reference.py``, a
verbatim copy of the old ``repro.eda.timing``/``repro.eda.opt`` code.
"""

import copy

import numpy as np
import pytest

from repro.eda.mmmc import DEFAULT_VIEWS, AnalysisView, MMMCAnalyzer, MMMCReport
from repro.eda.opt import TimingOptimizer
from repro.eda.sta import (
    FAST,
    PI_SLEW,
    SLOW,
    TYPICAL,
    GraphSTA,
    SignoffSTA,
    TimingReport,
    TimingTopology,
)
from tests.eda import sta_reference as ref
from tests.eda.test_steiner_hold import _skewed_setup

_EP_FIELDS = (
    "endpoint", "kind", "arrival", "required", "slack", "path_depth",
    "path_wire_delay", "path_cell_delay", "path_max_fanout", "path_slew",
    "hold_slack",
)

CORNERS = {"tt": (TYPICAL, ref.TYPICAL), "ss": (SLOW, ref.SLOW), "ff": (FAST, ref.FAST)}


def assert_reports_identical(got, want, compare_proxy=True):
    """Field-for-field, bit-for-bit equality of two timing reports.

    ``compare_proxy=False`` is for reports produced by the incremental
    path: its QoR must be bitwise identical to a from-scratch run, but
    its runtime proxy is *smaller* — that difference is the whole point.
    """
    assert got.engine == want.engine
    assert got.corner == want.corner
    assert got.clock_period == want.clock_period
    if compare_proxy:
        assert got.runtime_proxy == want.runtime_proxy
    else:
        assert got.runtime_proxy <= want.runtime_proxy
    assert list(got.endpoints) == list(want.endpoints)
    for name in got.endpoints:
        ep_got, ep_want = got.endpoints[name], want.endpoints[name]
        for field in _EP_FIELDS:
            assert getattr(ep_got, field) == getattr(ep_want, field), (name, field)
    assert got.paths == want.paths


@pytest.fixture(scope="module")
def skews(small_netlist):
    rng = np.random.default_rng(5)
    return {
        inst.name: float(rng.normal(0.0, 4.0))
        for inst in small_netlist.sequential_instances()
    }


# ---------------------------------------------------------------- fresh path
@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("check_hold", [False, True])
def test_graph_engine_fresh_equivalence(
    small_netlist, small_placement, small_congestion, skews, corner, check_hold
):
    new_corner, ref_corner = CORNERS[corner]
    got = GraphSTA(new_corner).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    want = ref.GraphSTA(ref_corner).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    assert_reports_identical(got, want)


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("pba", [False, True])
@pytest.mark.parametrize("check_hold", [False, True])
def test_signoff_engine_fresh_equivalence(
    small_netlist, small_placement, small_congestion, skews, corner, pba, check_hold
):
    new_corner, ref_corner = CORNERS[corner]
    got = SignoffSTA(new_corner, pba=pba).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    want = ref.SignoffSTA(ref_corner, pba=pba).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    assert_reports_identical(got, want)


def test_fresh_equivalence_without_skew_or_congestion(small_netlist, small_placement):
    got = SignoffSTA().analyze(small_netlist, small_placement, 900.0)
    want = ref.SignoffSTA().analyze(small_netlist, small_placement, 900.0)
    assert_reports_identical(got, want)


# ------------------------------------------ array kernel vs per-node kernel
def assert_columns_match_per_node(graph, oracle):
    """Each per-net array of the live kernel equals the per-node oracle's
    dict bit for bit; a net absent from a dict holds the fill value."""
    index = graph.topology.net_index
    names = index.names
    pred = [
        -1 if oracle.pred.get(name) is None else index.ids[oracle.pred[name]]
        for name in names
    ]
    for attr, got, want in (
        ("load", graph._load, [oracle.net_load.get(n, 0.0) for n in names]),
        ("arrival", graph._arrival, [oracle.arrival.get(n, 0.0) for n in names]),
        ("slew", graph._slew, [oracle.slew.get(n, PI_SLEW) for n in names]),
        ("arrival_min", graph._arrival_min,
         [oracle.arrival_min.get(n, 0.0) for n in names]),
        ("pred", graph._pred, pred),
    ):
        want = np.array(want, dtype=got.dtype)
        assert got.shape == want.shape, attr
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert differ.size == 0, (attr, [names[row] for row in differ[:5]])


def assert_state_matches_per_node(graph, oracle):
    """The live kernel's per-net state equals the per-node oracle's, and
    stays equal when both recompute every node.

    The frozen engines only return reports, so the per-node kernel in
    ``sta_reference`` is the oracle for per-net state.
    """
    assert_columns_match_per_node(graph, oracle)
    everything = list(graph.netlist.instances)
    assert graph.update(everything) == oracle.update(everything) == len(everything)
    assert_columns_match_per_node(graph, oracle)


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("check_hold", [False, True])
def test_vectorized_graph_kernel_matches_scalar_and_reference(
    small_netlist, small_placement, small_congestion, skews, corner, check_hold
):
    new_corner, ref_corner = CORNERS[corner]
    g = GraphSTA(new_corner).build_graph(
        small_netlist, small_placement, skews=skews,
        congestion=small_congestion, check_hold=check_hold,
    )
    g.full_propagate()
    want = ref.GraphSTA(ref_corner).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    assert_reports_identical(g.report(1100.0), want)
    oracle = ref.PerNodeTimingGraph(
        ref.GraphSTA(ref_corner), small_netlist, small_placement, skews=skews,
        congestion=small_congestion, check_hold=check_hold,
    )
    oracle.full_propagate()
    assert_state_matches_per_node(g, oracle)


@pytest.mark.parametrize("corner", sorted(CORNERS))
@pytest.mark.parametrize("pba", [False, True])
@pytest.mark.parametrize("check_hold", [False, True])
def test_vectorized_signoff_kernel_matches_scalar_and_reference(
    small_netlist, small_placement, small_congestion, skews, corner, pba, check_hold
):
    new_corner, ref_corner = CORNERS[corner]
    g = SignoffSTA(new_corner, pba=pba).build_graph(
        small_netlist, small_placement, skews=skews,
        congestion=small_congestion, check_hold=check_hold,
    )
    g.full_propagate()
    want = ref.SignoffSTA(ref_corner, pba=pba).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=check_hold,
    )
    assert_reports_identical(g.report(1100.0), want)
    oracle = ref.PerNodeTimingGraph(
        ref.SignoffSTA(ref_corner, pba=pba), small_netlist, small_placement,
        skews=skews, congestion=small_congestion, check_hold=check_hold,
    )
    oracle.full_propagate()
    assert_state_matches_per_node(g, oracle)


def test_vectorized_kernel_charges_identical_proxy(
    small_netlist, small_placement, small_congestion, skews
):
    """The SoA kernel counts the same ops as the historical engine — the
    runtime-proxy cost model must not notice the implementation."""
    g = SignoffSTA(SLOW).build_graph(
        small_netlist, small_placement, skews=skews,
        congestion=small_congestion, check_hold=True,
    )
    g.full_propagate()
    g.report(1100.0)
    want = ref.SignoffSTA(ref.SLOW).analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        check_hold=True,
    )
    assert g.stats.proxy_executed == want.runtime_proxy
    assert g.stats.proxy_full_equivalent == want.runtime_proxy


# ----------------------------------------------------------- optimizer loop
@pytest.mark.parametrize("period,guardband,seed", [
    (600.0, 0.0, 0),     # deeply failing: _fix_timing passes
    (700.0, 60.0, 11),   # guardbanded near the wall
    (1600.0, 0.0, 3),    # relaxed: power recovery passes
])
def test_incremental_optimizer_matches_reference(
    small_netlist, small_placement, small_congestion, skews, period, guardband, seed
):
    nl_a, pl_a = copy.deepcopy((small_netlist, small_placement))
    nl_b, pl_b = copy.deepcopy((small_netlist, small_placement))

    live = TimingOptimizer(guardband=guardband).optimize(
        nl_a, pl_a, period, GraphSTA(), skews, small_congestion, seed,
    )
    golden = ref.ReferenceTimingOptimizer(guardband=guardband).optimize(
        nl_b, pl_b, period, ref.GraphSTA(), skews, small_congestion, seed,
    )

    assert live.passes == golden.passes
    assert live.upsizes == golden.upsizes
    assert live.downsizes == golden.downsizes
    assert live.vt_swaps == golden.vt_swaps
    assert live.history == golden.history
    assert live.area_delta == golden.area_delta
    assert live.leakage_delta == golden.leakage_delta
    assert_reports_identical(live.final_report, golden.final_report,
                             compare_proxy=False)
    # the surgeries themselves are identical, cell for cell
    assert {n: i.cell.name for n, i in nl_a.instances.items()} == {
        n: i.cell.name for n, i in nl_b.instances.items()
    }


def test_optimizer_did_real_work(small_netlist, small_placement, small_congestion, skews):
    """Guard the parametrization above: both loop branches must fire."""
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    tight = TimingOptimizer().optimize(nl, pl, 600.0, GraphSTA(), skews,
                                       small_congestion, 0)
    assert tight.upsizes + tight.vt_swaps > 0
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    loose = TimingOptimizer().optimize(nl, pl, 1600.0, GraphSTA(), skews,
                                       small_congestion, 3)
    assert loose.downsizes + loose.vt_swaps > 0


def test_incremental_optimizer_saves_proxy(
    small_netlist, small_placement, small_congestion, skews
):
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    result = TimingOptimizer().optimize(
        nl, pl, 600.0, GraphSTA(), skews, small_congestion, 0
    )
    stats = result.sta_stats
    assert stats is not None
    assert stats.full_propagates == 1
    assert stats.incremental_updates == result.passes or \
        stats.incremental_updates == result.passes - 1  # last pass may not change
    assert stats.proxy_saved > 0
    assert stats.proxy_executed < stats.proxy_full_equivalent


def test_fix_hold_matches_reference(library):
    nl_a, pl_a, skews_a = _skewed_setup(library)
    nl_b, pl_b, skews_b = _skewed_setup(library)
    inserted = TimingOptimizer().fix_hold(
        nl_a, pl_a, 1500.0, GraphSTA(), skews=skews_a
    )
    golden = ref.ReferenceTimingOptimizer().fix_hold(
        nl_b, pl_b, 1500.0, ref.GraphSTA(), skews=skews_b
    )
    assert inserted == golden > 0
    assert set(nl_a.instances) == set(nl_b.instances)
    report_a = GraphSTA().analyze(nl_a, pl_a, 1500.0, skews_a, check_hold=True)
    report_b = ref.GraphSTA().analyze(nl_b, pl_b, 1500.0, skews_b, check_hold=True)
    assert_reports_identical(report_a, report_b)


# ------------------------------------------------------------------- MMMC
def test_mmmc_matches_reference_per_view(
    small_netlist, small_placement, small_congestion, skews
):
    merged = MMMCAnalyzer().analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion
    )
    ref_engines = {
        "setup_ss": (ref.SignoffSTA(ref.SLOW), False),
        "hold_ff": (ref.SignoffSTA(ref.FAST), True),
        "typ_tt": (ref.SignoffSTA(ref.TYPICAL), True),
    }
    assert list(merged.reports) == [v.name for v in DEFAULT_VIEWS]
    for name, (engine, check_hold) in ref_engines.items():
        want = engine.analyze(
            small_netlist, small_placement, 1100.0, skews=skews,
            congestion=small_congestion, check_hold=check_hold,
        )
        assert_reports_identical(merged.reports[name], want)


def test_mmmc_graph_views_match_reference(small_netlist, small_placement, skews):
    views = (
        AnalysisView("g_ss", SLOW, "graph"),
        AnalysisView("g_ff", FAST, "graph", check_hold=True),
    )
    merged = MMMCAnalyzer(views).analyze(small_netlist, small_placement, 1100.0, skews)
    assert_reports_identical(
        merged.reports["g_ss"],
        ref.GraphSTA(ref.SLOW).analyze(small_netlist, small_placement, 1100.0, skews),
    )
    assert_reports_identical(
        merged.reports["g_ff"],
        ref.GraphSTA(ref.FAST).analyze(
            small_netlist, small_placement, 1100.0, skews, check_hold=True
        ),
    )


def test_mmmc_engines_hoisted_to_init(small_netlist, small_placement, skews):
    analyzer = MMMCAnalyzer()
    engines_before = dict(analyzer.engines)
    first = analyzer.analyze(small_netlist, small_placement, 1100.0, skews)
    second = analyzer.analyze(small_netlist, small_placement, 1100.0, skews)
    # same engine objects across calls, and repeat calls are bit-stable
    assert all(analyzer.engines[k] is engines_before[k] for k in engines_before)
    for name in first.reports:
        assert_reports_identical(first.reports[name], second.reports[name])


def test_mmmc_shared_topology_is_equivalent(
    small_netlist, small_placement, small_congestion, skews
):
    topo = TimingTopology(small_netlist, small_placement)
    with_topo = MMMCAnalyzer().analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion,
        topology=topo,
    )
    without = MMMCAnalyzer().analyze(
        small_netlist, small_placement, 1100.0, skews, small_congestion
    )
    for name in with_topo.reports:
        assert_reports_identical(with_topo.reports[name], without.reports[name])


def test_mmmc_rejects_bad_period(small_netlist, small_placement):
    for period in (0.0, -5.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            MMMCAnalyzer().analyze(small_netlist, small_placement, period)


def test_mmmc_worst_view_tie_breaks_deterministically():
    def fake_report(wns):
        report = TimingReport(engine="signoff", corner="tt", clock_period=1000.0)
        from repro.eda.sta import EndpointTiming

        report.endpoints["x/D"] = EndpointTiming(
            endpoint="x/D", kind="setup", arrival=0.0, required=wns, slack=wns,
            path_depth=1, path_wire_delay=0.0, path_cell_delay=0.0,
            path_max_fanout=1, path_slew=20.0, hold_slack=wns,
        )
        return report

    merged = MMMCReport()
    merged.reports["first"] = fake_report(-5.0)
    merged.reports["second"] = fake_report(-5.0)  # exact tie
    merged.reports["third"] = fake_report(0.0)
    assert merged.worst_setup_view == "first"
    assert merged.worst_hold_view == "first"
