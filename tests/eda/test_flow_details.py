"""Flow internals: the netlist path, logs, runtime accounting, options."""

import numpy as np
import pytest

from repro.core.orchestration import default_flow_space
from repro.eda.flow import FlowOptions, SPRFlow, StepLog
from repro.eda.synthesis import synthesize


def test_implement_skips_synthesis(library, small_netlist, small_spec):
    """run() on a prebuilt netlist: no synth step in the log."""
    import copy

    netlist = synthesize(small_spec, library, effort=0.5, seed=7)
    result = SPRFlow().run(netlist, FlowOptions(target_clock_ghz=0.5), seed=1)
    steps = [log.step for log in result.logs]
    assert steps[0] == "floorplan"
    assert "synth" not in steps
    assert result.design == netlist.name


def test_run_equals_synthesize_plus_implement(library, small_spec):
    """A spec run must be exactly synthesize + a netlist run with split
    seeds."""
    full = SPRFlow().run(small_spec, FlowOptions(), seed=5)
    rng = np.random.default_rng(5)
    synth_seed = int(rng.integers(0, 2**31 - 1))
    impl_seed = int(rng.integers(0, 2**31 - 1))
    netlist = synthesize(small_spec, library, 0.5, synth_seed)
    manual = SPRFlow().run(netlist, FlowOptions(), seed=impl_seed)
    assert manual.area == pytest.approx(full.area)
    assert manual.wns == pytest.approx(full.wns)
    assert manual.final_drvs == full.final_drvs


def test_runtime_proxy_is_sum_of_steps(small_spec):
    result = SPRFlow().run(small_spec, FlowOptions(), seed=2)
    assert result.runtime_proxy == pytest.approx(
        sum(log.runtime_proxy for log in result.logs)
    )
    assert all(log.runtime_proxy >= 0 for log in result.logs)


def test_step_log_text_format():
    log = StepLog("demo", {"value": 1.5}, series={"trace": [1.0, 2.0]},
                  runtime_proxy=3.0)
    text = log.to_text()
    assert "#--- step demo (cost 3) ---" in text
    assert "demo.value = 1.5000" in text
    assert "demo.trace[0] = 1.0000" in text
    assert "demo.trace[1] = 2.0000" in text


def test_higher_router_effort_helps_drvs(small_spec):
    lazy = SPRFlow().run(
        small_spec, FlowOptions(utilization=0.9, router_effort=0.2,
                                router_tracks_per_um=11.0), seed=3
    )
    eager = SPRFlow().run(
        small_spec, FlowOptions(utilization=0.9, router_effort=1.0,
                                router_tracks_per_um=11.0), seed=3
    )
    assert eager.final_drvs <= lazy.final_drvs


def test_more_router_iterations_help(small_spec):
    short = SPRFlow().run(
        small_spec, FlowOptions(utilization=0.9, router_max_iterations=5,
                                router_tracks_per_um=11.0), seed=4
    )
    long = SPRFlow().run(
        small_spec, FlowOptions(utilization=0.9, router_max_iterations=40,
                                router_tracks_per_um=11.0), seed=4
    )
    assert long.final_drvs <= short.final_drvs


def test_synth_effort_changes_structure(small_spec):
    low = SPRFlow().run(small_spec, FlowOptions(synth_effort=0.0), seed=5)
    high = SPRFlow().run(small_spec, FlowOptions(synth_effort=1.0), seed=5)
    low_depth = next(l for l in low.logs if l.step == "synth").metrics["depth"]
    high_depth = next(l for l in high.logs if l.step == "synth").metrics["depth"]
    assert high_depth < low_depth


def test_iteration_aware_tree_is_larger():
    tree = default_flow_space()
    flat = tree.n_trajectories
    looped = tree.n_trajectories_with_iteration(p_repeat=0.3, max_repeats=2)
    assert looped > flat
    no_loops = tree.n_trajectories_with_iteration(p_repeat=0.0)
    assert no_loops == pytest.approx(flat)
    with pytest.raises(ValueError):
        tree.n_trajectories_with_iteration(p_repeat=1.0)
    with pytest.raises(ValueError):
        tree.n_trajectories_with_iteration(max_repeats=-1)
