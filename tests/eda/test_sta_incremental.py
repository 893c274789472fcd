"""Property-style checks for the incremental STA kernel.

The contract under test: after any supported edit sequence (cell
swaps, buffer splices), ``TimingGraph.update(changed)`` followed by
``report()`` is **bitwise identical** to throwing the graph away and
running ``full_propagate()`` from scratch — while charging a smaller
runtime proxy.  Random seeded edit walks across designs, corners and
engines exercise that property; the rest covers the kernel's error
paths, its :class:`StaStats` accounting, and the delay-policy hooks.
"""

import copy

import numpy as np
import pytest

from repro.eda.floorplan import make_floorplan
from repro.eda.library import DRIVE_STRENGTHS, make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.sta import (
    FAST,
    SLOW,
    TYPICAL,
    DelayPolicy,
    GraphDelayPolicy,
    GraphSTA,
    SignoffDelayPolicy,
    SignoffSTA,
    StaStats,
    TimingGraph,
    TimingTopology,
)
from repro.eda.synthesis import DesignSpec, synthesize
from tests.eda.test_sta_equivalence import (
    assert_per_node_recompute_is_identity,
    assert_reports_identical,
)

CLOCK = 1100.0


def _fresh_design(n_gates, n_flops, depth, seed):
    lib = make_default_library()
    spec = DesignSpec(
        name=f"prop{seed}", n_gates=n_gates, n_flops=n_flops, n_inputs=6,
        n_outputs=6, depth=depth, locality=0.7,
    )
    nl = synthesize(spec, lib, effort=0.5, seed=seed)
    fp = make_floorplan(nl, utilization=0.7)
    pl = QuadraticPlacer().place(nl, fp, seed=seed + 1)
    return nl, pl


def _random_swap(netlist, rng):
    """Apply one random upsize / downsize / LVT swap; return the name."""
    combs = [n for n, i in netlist.instances.items() if not i.cell.is_sequential]
    lib = netlist.library
    for _ in range(40):
        name = combs[int(rng.integers(0, len(combs)))]
        cell = netlist.instances[name].cell
        kind = int(rng.integers(0, 3))
        drive_idx = DRIVE_STRENGTHS.index(cell.drive)
        if kind == 0 and drive_idx + 1 < len(DRIVE_STRENGTHS):
            netlist.replace_cell(name, lib.resize(cell, DRIVE_STRENGTHS[drive_idx + 1]))
            return name
        if kind == 1 and drive_idx > 0:
            netlist.replace_cell(name, lib.resize(cell, DRIVE_STRENGTHS[drive_idx - 1]))
            return name
        if kind == 2 and cell.vt != "LVT":
            netlist.replace_cell(name, lib.swap_vt(cell, "LVT"))
            return name
    raise RuntimeError("no applicable edit found")


# ------------------------------------------------------- the core property
@pytest.mark.parametrize("engine_cls,corner", [
    (GraphSTA, TYPICAL),
    (GraphSTA, SLOW),
    (SignoffSTA, FAST),
    (SignoffSTA, SLOW),
])
@pytest.mark.parametrize("design_seed", [21, 77])
@pytest.mark.parametrize("edit_seed", [0, 9])
def test_random_edit_walk_matches_full_propagate(
    engine_cls, corner, design_seed, edit_seed
):
    nl, pl = _fresh_design(90, 12, 8, design_seed)
    rng = np.random.default_rng(edit_seed)
    skews = {
        inst.name: float(rng.normal(0.0, 3.0))
        for inst in nl.sequential_instances()
    }
    engine = engine_cls(corner)
    graph = engine.build_graph(nl, pl, skews=skews, check_hold=True)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    for step in range(12):
        touched = [_random_swap(nl, rng)]
        graph.update(touched)
        incremental = graph.report(CLOCK)
        scratch = engine.analyze(nl, pl, CLOCK, skews, check_hold=True)
        # incremental QoR is bitwise the from-scratch QoR, cheaper proxy
        assert_reports_identical(incremental, scratch, compare_proxy=False)
    assert graph.stats.incremental_updates > 0
    assert graph.stats.proxy_saved > 0


def test_buffer_splice_vectorized_tracks_scalar_kernel():
    """Structural edits (buffer splices) re-propagate through the
    façade-backed state of a vectorized propagation — including nets
    the splice makes newly present — to the from-scratch result, and
    leave a state the per-node kernel reproduces bit for bit."""
    nl, pl = _fresh_design(70, 10, 6, 34)
    buffer_cell = nl.library.pick("BUF", 1, "HVT")
    engine = SignoffSTA(SLOW)
    graph = engine.build_graph(nl, pl, check_hold=True)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    flops = [i.name for i in nl.sequential_instances()][:4]
    for k, flop_name in enumerate(flops):
        d_net = nl.instances[flop_name].input_nets[0]
        buf = nl.insert_buffer(f"vsplice_{k}", buffer_cell, d_net, flop_name, 0)
        pl.positions[buf.name] = pl.positions[flop_name]
        graph.update([buf.name])
        scratch = engine.analyze(nl, pl, CLOCK, check_hold=True)
        assert_reports_identical(graph.report(CLOCK), scratch,
                                 compare_proxy=False)
        assert_per_node_recompute_is_identity(graph)
        graph.report(CLOCK)  # drain the recompute's ops


def test_batched_edits_match_full_propagate(small_netlist, small_placement,
                                            small_congestion):
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    rng = np.random.default_rng(4)
    engine = SignoffSTA()
    graph = engine.build_graph(nl, pl, congestion=small_congestion)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    # several edits folded into one update() call, duplicates included
    touched = [_random_swap(nl, rng) for _ in range(6)]
    graph.update(touched + touched[:2])
    incremental = graph.report(CLOCK)
    scratch = engine.analyze(nl, pl, CLOCK, congestion=small_congestion)
    assert_reports_identical(incremental, scratch, compare_proxy=False)


def test_buffer_splice_matches_full_propagate():
    nl, pl = _fresh_design(70, 10, 6, 33)
    lib = nl.library
    buffer_cell = lib.pick("BUF", 1, "HVT")
    engine = GraphSTA()
    graph = engine.build_graph(nl, pl, check_hold=True)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    flops = [i.name for i in nl.sequential_instances()][:4]
    for k, flop_name in enumerate(flops):
        d_net = nl.instances[flop_name].input_nets[0]
        buf = nl.insert_buffer(f"splice_{k}", buffer_cell, d_net, flop_name, 0)
        pl.positions[buf.name] = pl.positions[flop_name]
        graph.update([buf.name])
        incremental = graph.report(CLOCK)
        scratch = engine.analyze(nl, pl, CLOCK, check_hold=True)
        assert_reports_identical(incremental, scratch, compare_proxy=False)


def test_interleaved_swaps_and_splices():
    nl, pl = _fresh_design(80, 10, 7, 55)
    rng = np.random.default_rng(2)
    buffer_cell = nl.library.pick("BUF", 1, "HVT")
    engine = SignoffSTA(SLOW)
    graph = engine.build_graph(nl, pl, check_hold=True)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    flops = [i.name for i in nl.sequential_instances()]
    for step in range(6):
        if step % 2:
            flop_name = flops[step % len(flops)]
            d_net = nl.instances[flop_name].input_nets[0]
            buf = nl.insert_buffer(f"mix_{step}", buffer_cell, d_net, flop_name, 0)
            pl.positions[buf.name] = pl.positions[flop_name]
            touched = [buf.name]
        else:
            touched = [_random_swap(nl, rng)]
        graph.update(touched)
        incremental = graph.report(CLOCK)
        scratch = engine.analyze(nl, pl, CLOCK, check_hold=True)
        assert_reports_identical(incremental, scratch, compare_proxy=False)


def test_full_propagate_after_splices_rebuilds_topology():
    """A splice leaves the shared topology stale on purpose; the next
    full_propagate must rebuild it to include the new node."""
    nl, pl = _fresh_design(60, 8, 6, 44)
    engine = GraphSTA()
    graph = engine.build_graph(nl, pl)
    graph.full_propagate()
    flop_name = next(iter(nl.sequential_instances())).name
    buf = nl.insert_buffer(
        "rebuild_buf", nl.library.pick("BUF", 1, "HVT"),
        nl.instances[flop_name].input_nets[0], flop_name, 0,
    )
    pl.positions[buf.name] = pl.positions[flop_name]
    assert graph.topology.stale
    graph.full_propagate()
    assert not graph.topology.stale
    assert buf.name in graph.topology.order
    assert_reports_identical(graph.report(CLOCK),
                             engine.analyze(nl, pl, CLOCK))


def test_si_walk_reports_on_stale_topology():
    """Every splice leaves the shared topology stale until the next
    report; with SI on (a congestion map), hold checks and PBA, each
    report of an interleaved swap/splice walk must still be bitwise the
    from-scratch analysis — the ``fix_hold`` loop's access pattern."""
    nl, pl = _fresh_design(80, 12, 7, 61)
    rng = np.random.default_rng(13)
    congestion = rng.uniform(0.2, 1.6, size=(12, 12))
    skews = {
        inst.name: float(rng.normal(0.0, 3.0))
        for inst in nl.sequential_instances()
    }
    buffer_cell = nl.library.pick("BUF", 1, "HVT")
    engine = SignoffSTA(SLOW, pba=True)
    graph = engine.build_graph(nl, pl, skews=skews, congestion=congestion,
                               check_hold=True)
    graph.full_propagate()
    graph.report(CLOCK)  # drain the full-propagate ops
    flops = [i.name for i in nl.sequential_instances()]
    splices = 0
    for step in range(8):
        touched = [_random_swap(nl, rng)]
        if step % 2:
            flop_name = flops[(3 * step) % len(flops)]
            d_net = nl.instances[flop_name].input_nets[0]
            buf = nl.insert_buffer(f"si_{step}", buffer_cell, d_net, flop_name, 0)
            pl.positions[buf.name] = pl.positions[flop_name]
            touched.append(buf.name)
            splices += 1
            assert graph.topology.stale
        graph.update(touched)
        incremental = graph.report(CLOCK)
        scratch = engine.analyze(nl, pl, CLOCK, skews, congestion, check_hold=True)
        assert_reports_identical(incremental, scratch, compare_proxy=False)
        assert any(path for path in incremental.paths.values())
    assert splices == 4


# ------------------------------------------------------------- error paths
def test_update_before_propagate_raises(small_netlist, small_placement):
    graph = GraphSTA().build_graph(small_netlist, small_placement)
    with pytest.raises(RuntimeError):
        graph.update(["g0"])


def test_report_before_propagate_raises(small_netlist, small_placement):
    graph = GraphSTA().build_graph(small_netlist, small_placement)
    with pytest.raises(RuntimeError):
        graph.report(CLOCK)


def test_report_rejects_bad_period(small_netlist, small_placement):
    graph = GraphSTA().build_graph(small_netlist, small_placement)
    graph.full_propagate()
    with pytest.raises(ValueError):
        graph.report(0.0)


# ---------------------------------------------------------- stats accounting
def test_stats_full_only(small_netlist, small_placement):
    graph = GraphSTA().build_graph(small_netlist, small_placement)
    graph.full_propagate()
    graph.report(CLOCK)
    stats = graph.stats
    assert stats.full_propagates == 1
    assert stats.incremental_updates == 0
    assert stats.nodes_propagated == 0
    # a single fresh query pays exactly the full-equivalent proxy
    assert stats.proxy_executed == stats.proxy_full_equivalent
    assert stats.proxy_saved == 0.0


def test_stats_after_updates(small_netlist, small_placement):
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    rng = np.random.default_rng(8)
    graph = GraphSTA().build_graph(nl, pl)
    graph.full_propagate()
    graph.report(CLOCK)
    nodes = graph.update([_random_swap(nl, rng)])
    graph.report(CLOCK)
    stats = graph.stats
    assert stats.incremental_updates == 1
    assert stats.nodes_propagated == nodes > 0
    assert nodes < len(nl.instances)  # dirty cone, not the whole design
    assert stats.proxy_saved > 0


def test_stats_add_and_copy():
    a = StaStats(full_propagates=1, incremental_updates=2, nodes_propagated=30,
                 proxy_executed=100.0, proxy_full_equivalent=400.0)
    b = a.copy()
    b.add(StaStats(full_propagates=1, proxy_executed=50.0,
                   proxy_full_equivalent=50.0))
    assert a.full_propagates == 1  # copy() detached
    assert b.full_propagates == 2
    assert b.proxy_saved == 300.0
    assert StaStats(proxy_executed=10.0, proxy_full_equivalent=5.0).proxy_saved == 0.0


# ----------------------------------------------------- topology & policies
def test_topology_shared_between_engines(small_netlist, small_placement):
    topo = TimingTopology(small_netlist, small_placement)
    g1 = GraphSTA().build_graph(small_netlist, small_placement, topology=topo)
    g2 = SignoffSTA().build_graph(small_netlist, small_placement, topology=topo)
    assert g1.topology is g2.topology is topo
    g1.full_propagate()
    g2.full_propagate()
    assert_reports_identical(g1.report(CLOCK),
                             GraphSTA().analyze(small_netlist, small_placement, CLOCK))
    assert_reports_identical(g2.report(CLOCK),
                             SignoffSTA().analyze(small_netlist, small_placement, CLOCK))


def test_topology_staleness_tracks_structure_version(small_netlist, small_placement):
    nl, pl = copy.deepcopy((small_netlist, small_placement))
    topo = TimingTopology(nl, pl)
    assert not topo.stale
    flop_name = next(iter(nl.sequential_instances())).name
    buf = nl.insert_buffer("stale_buf", nl.library.pick("BUF", 1, "HVT"),
                           nl.instances[flop_name].input_nets[0], flop_name, 0)
    pl.positions[buf.name] = pl.positions[flop_name]
    assert topo.stale
    topo.rebuild()
    assert not topo.stale


def test_graph_policy_defaults():
    policy = GraphDelayPolicy(TYPICAL)
    assert policy.engine_name == "graph"
    assert policy.si_bump(100.0, 0.9) == 0.0
    assert policy.stage_derate() == 1.0
    assert policy.early_derate() == 1.0
    assert policy.merge_slew([3.0, 7.0, 5.0]) == 7.0
    assert policy.runtime_proxy(42) == 42.0
    assert policy.full_runtime_proxy(42) == 42.0


def test_signoff_policy_hooks():
    policy = SignoffDelayPolicy(SLOW, si_factor=0.5, ocv_derate=1.06, pba=True)
    assert policy.engine_name == "signoff"
    assert policy.si_bump(10.0, 0.5) == 0.5 * 10.0 * 0.12 * 0.5
    assert policy.si_bump(10.0, -1.0) == 0.0  # congestion clamped at zero
    assert policy.stage_derate() == 1.06
    assert policy.early_derate() == 0.92  # fixed early OCV
    rms = policy.merge_slew([3.0, 4.0])
    assert rms == float(np.sqrt(np.mean(np.array([3.0, 4.0]) ** 2)))
    assert policy.runtime_proxy(10) == 60.0
    assert policy.full_runtime_proxy(10) == 60.0 * 1.8  # PBA depth sweep


def test_signoff_merge_slew_batch_is_a_left_fold():
    """The batched RMS slew merge sums each segment left to right, as
    the scalar ``merge_slew`` does: ``np.add.reduceat`` would return
    ``a[s] + (a[s+1] + a[s+2])``, one ulp off on this triple."""
    policy = SignoffDelayPolicy(SLOW)
    triple = [9.10214031217829, 13.755350780445726, 15.455350780445725]
    merged = policy.merge_slew_batch(
        np.array(triple), np.array([0]), np.array([3])
    )
    assert merged.tolist() == [policy.merge_slew(triple)]

    rng = np.random.default_rng(8)
    counts = rng.integers(1, 4, size=400)
    slews = rng.uniform(5.0, 60.0, size=int(counts.sum()))
    starts = np.cumsum(counts) - counts
    merged = policy.merge_slew_batch(slews, starts, counts).tolist()
    assert merged == [
        policy.merge_slew(slews[a:a + n].tolist())
        for a, n in zip(starts.tolist(), counts.tolist())
    ]


def test_signoff_policy_validation():
    with pytest.raises(ValueError):
        SignoffDelayPolicy(TYPICAL, si_factor=-0.1)
    with pytest.raises(ValueError):
        SignoffDelayPolicy(TYPICAL, ocv_derate=0.9)
    with pytest.raises(ValueError):
        SignoffSTA(si_factor=-0.1)
    with pytest.raises(ValueError):
        SignoffSTA(ocv_derate=0.9)


def test_base_policy_wire_delay_is_elmore():
    policy = DelayPolicy(SLOW)
    lib = make_default_library()
    r = lib.wire_r_per_um * 40.0 * SLOW.wire_factor
    c_wire = lib.wire_c_per_um * 40.0 * SLOW.wire_factor
    assert policy.wire_delay(40.0, 6.0, lib) == r * (c_wire / 2.0 + 6.0)


def _compensated_sum(iterable, /, start=0):
    """Python 3.12's ``sum()``: Neumaier-compensated once a float shows up."""
    items = list(iterable)
    if not any(isinstance(x, float) for x in items) or not all(
        isinstance(x, (int, float)) for x in items
    ):
        return _BUILTIN_SUM(items, start)
    total = float(start)
    compensation = 0.0
    for x in items:
        x = float(x)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation else total


_BUILTIN_SUM = sum


def test_per_node_recompute_is_identity_under_compensated_sum(monkeypatch):
    """Net loads are explicit left folds, so the per-node recompute keeps
    matching the full pass's ``np.bincount`` on Python 3.12, whose
    ``sum()`` over floats is compensated (emulated here on any version)."""
    import builtins

    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert sum([0.1] * 10) == 1.0  # the emulation is active
    for seed in (21, 77):
        nl, pl = _fresh_design(90, 12, 8, seed)
        graph = SignoffSTA(SLOW).build_graph(nl, pl, check_hold=True)
        graph.full_propagate()
        assert_per_node_recompute_is_identity(graph)


# ----------------------------------------------------------- report helpers
def test_slack_of_names_endpoint_and_engine(small_netlist, small_placement):
    report = GraphSTA().analyze(small_netlist, small_placement, CLOCK)
    with pytest.raises(KeyError) as err:
        report.slack_of("nope/D")
    message = str(err.value)
    assert "nope/D" in message
    assert "graph" in message


def test_worst_endpoint_matches_wns(small_netlist, small_placement):
    report = SignoffSTA().analyze(small_netlist, small_placement, CLOCK)
    worst = report.worst_endpoint()
    assert worst is not None
    assert worst.slack == report.wns
    # first-wins on exact ties: scan order is insertion order
    first_min = next(
        name for name, ep in report.endpoints.items() if ep.slack == report.wns
    )
    assert worst.endpoint == first_min


def test_worst_endpoint_empty_report():
    from repro.eda.sta import TimingReport

    assert TimingReport(engine="graph", corner="tt",
                        clock_period=CLOCK).worst_endpoint() is None


# --------------------------------------------------------- metrics plumbing
def test_sta_events_registered_in_vocabulary():
    from repro.metrics.schema import EXECUTOR_EVENT_METRICS, VOCABULARY

    for name in ("sta.full", "sta.incremental.updates",
                 "sta.incremental.nodes", "sta.incremental.proxy_saved"):
        assert name in VOCABULARY
        assert name in EXECUTOR_EVENT_METRICS
