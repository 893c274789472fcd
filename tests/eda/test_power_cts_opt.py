"""Power analysis, clock tree synthesis, and the timing optimizer."""

import numpy as np
import pytest

from repro.eda.cts import ClockTreeSynthesizer
from repro.eda.opt import TimingOptimizer
from repro.eda.power import estimate_power, ir_drop_analysis
from repro.eda.sta import GraphSTA


# ------------------------------------------------------------------ power
def test_power_scales_with_frequency(small_netlist, small_placement):
    slow = estimate_power(small_netlist, small_placement, frequency_ghz=0.5)
    fast = estimate_power(small_netlist, small_placement, frequency_ghz=1.0)
    assert fast.dynamic > slow.dynamic
    assert fast.leakage == slow.leakage  # leakage is frequency-independent


def test_power_scales_with_activity(small_netlist, small_placement):
    quiet = estimate_power(small_netlist, small_placement, activity=0.05)
    busy = estimate_power(small_netlist, small_placement, activity=0.5)
    assert busy.dynamic > quiet.dynamic


def test_power_includes_wires_when_placed(small_netlist, small_placement):
    unplaced = estimate_power(small_netlist, None)
    placed = estimate_power(small_netlist, small_placement)
    assert placed.dynamic > unplaced.dynamic


def test_power_total_is_sum(small_netlist, small_placement):
    p = estimate_power(small_netlist, small_placement)
    assert p.total == pytest.approx(p.dynamic + p.leakage + p.clock)


def test_power_validation(small_netlist):
    with pytest.raises(ValueError):
        estimate_power(small_netlist, frequency_ghz=0.0)
    with pytest.raises(ValueError):
        estimate_power(small_netlist, activity=0.0)


def test_ir_drop_map(small_netlist, small_placement):
    power = estimate_power(small_netlist, small_placement)
    drop = ir_drop_analysis(small_netlist, small_placement, power, grid=8)
    assert drop.shape == (8, 8)
    assert drop.min() >= 0.0
    # corners host the pads: zero droop there
    assert drop[0, 0] == 0.0 and drop[-1, -1] == 0.0
    assert power.worst_ir_drop == pytest.approx(float(drop.max()))


def test_ir_drop_grows_with_power(small_netlist, small_placement):
    p_low = estimate_power(small_netlist, small_placement, frequency_ghz=0.2)
    p_high = estimate_power(small_netlist, small_placement, frequency_ghz=2.0)
    low = ir_drop_analysis(small_netlist, small_placement, p_low).max()
    high = ir_drop_analysis(small_netlist, small_placement, p_high).max()
    assert high > low


# -------------------------------------------------------------------- CTS
def test_cts_covers_all_flops(small_netlist, small_placement):
    result = ClockTreeSynthesizer().synthesize(small_netlist, small_placement, seed=1)
    flop_names = {f.name for f in small_netlist.sequential_instances()}
    assert set(result.skews) == flop_names
    assert result.n_buffers > 0
    assert result.buffer_area > 0


def test_cts_effort_reduces_skew(small_netlist, small_placement):
    lazy = ClockTreeSynthesizer(effort=0.0).synthesize(small_netlist, small_placement, seed=2)
    eager = ClockTreeSynthesizer(effort=1.0).synthesize(small_netlist, small_placement, seed=2)
    assert eager.global_skew < lazy.global_skew


def test_cts_validation():
    with pytest.raises(ValueError):
        ClockTreeSynthesizer(effort=2.0)
    with pytest.raises(ValueError):
        ClockTreeSynthesizer(max_cluster=1)


# -------------------------------------------------------------- optimizer
def test_optimizer_fixes_failing_timing(library, small_netlist, small_placement):
    # choose a period that fails before optimization
    sta = GraphSTA()
    base = sta.analyze(small_netlist, small_placement, 1.0)
    # pick a period ~ 90% of the critical path: negative slack
    critical = max(e.arrival for e in base.endpoints.values())
    period = critical * 0.93
    import copy

    from repro.eda.synthesis import synthesize
    # fresh netlist (optimizer mutates)
    nl = synthesize(
        __import__("repro.eda.synthesis", fromlist=["DesignSpec"]).DesignSpec(
            "opt", n_gates=120, n_flops=16, n_inputs=8, n_outputs=8, depth=10, locality=0.8
        ),
        library, effort=0.5, seed=7,
    )
    from repro.eda.floorplan import make_floorplan
    from repro.eda.placement import QuadraticPlacer

    fp = make_floorplan(nl, 0.7)
    pl = QuadraticPlacer().place(nl, fp, seed=3)
    before = sta.analyze(nl, pl, period).wns
    result = TimingOptimizer(max_passes=8).optimize(nl, pl, period, sta, seed=1)
    assert result.final_report.wns > before
    assert result.upsizes + result.vt_swaps > 0
    assert result.area_delta >= 0.0


def test_optimizer_recovers_power_when_met(library):
    from repro.eda.floorplan import make_floorplan
    from repro.eda.placement import QuadraticPlacer
    from repro.eda.synthesis import DesignSpec, synthesize

    nl = synthesize(
        DesignSpec("pr", n_gates=120, n_flops=16, n_inputs=8, n_outputs=8, depth=10),
        library, effort=0.5, seed=8,
    )
    fp = make_floorplan(nl, 0.7)
    pl = QuadraticPlacer().place(nl, fp, seed=3)
    leak_before = nl.total_leakage
    result = TimingOptimizer(max_passes=6).optimize(nl, pl, 5000.0, GraphSTA(), seed=2)
    # huge period: everything has slack, recovery must cut leakage
    assert result.vt_swaps > 0
    assert nl.total_leakage < leak_before
    assert result.final_report.wns >= 0


def test_guardband_forces_extra_work(library):
    from repro.eda.floorplan import make_floorplan
    from repro.eda.placement import QuadraticPlacer
    from repro.eda.synthesis import DesignSpec, synthesize

    spec = DesignSpec("gb", n_gates=120, n_flops=16, n_inputs=8, n_outputs=8, depth=10)

    def run(guardband):
        nl = synthesize(spec, library, effort=0.5, seed=9)
        fp = make_floorplan(nl, 0.7)
        pl = QuadraticPlacer().place(nl, fp, seed=3)
        sta = GraphSTA()
        crit = max(e.arrival for e in sta.analyze(nl, pl, 1000.0).endpoints.values())
        opt = TimingOptimizer(guardband=guardband, max_passes=6, recover_power=False)
        result = opt.optimize(nl, pl, crit * 1.05, sta, seed=4)
        return result.total_ops

    assert run(150.0) > run(0.0)


def test_optimizer_validation():
    with pytest.raises(ValueError):
        TimingOptimizer(max_passes=0)
    with pytest.raises(ValueError):
        TimingOptimizer(guardband=-1.0)
    with pytest.raises(ValueError):
        TimingOptimizer(cells_per_pass=0)
