"""The end-to-end SP&R flow."""

import numpy as np
import pytest

from repro.eda.flow import FlowOptions, SPRFlow


@pytest.fixture(scope="module")
def flow_result(small_spec):
    return SPRFlow().run(small_spec, FlowOptions(target_clock_ghz=0.6), seed=5)


def test_flow_produces_all_steps(flow_result):
    steps = [log.step for log in flow_result.logs]
    assert steps == ["synth", "floorplan", "place", "cts", "groute", "opt", "droute", "signoff"]


def test_flow_metrics_populated(flow_result):
    assert flow_result.area > 0
    assert flow_result.power > 0
    assert flow_result.hpwl > 0
    assert flow_result.achieved_ghz > 0
    assert flow_result.runtime_proxy > 0
    assert np.isfinite(flow_result.wns)


def test_flow_is_deterministic(small_spec):
    a = SPRFlow().run(small_spec, FlowOptions(), seed=11)
    b = SPRFlow().run(small_spec, FlowOptions(), seed=11)
    assert a.area == b.area
    assert a.wns == b.wns
    assert a.final_drvs == b.final_drvs


def test_flow_seed_noise(small_spec):
    areas = {SPRFlow().run(small_spec, FlowOptions(), seed=s).wns for s in range(3)}
    assert len(areas) > 1


def test_success_requires_routing_and_timing(flow_result):
    assert flow_result.success == (flow_result.routed and flow_result.timing_met)


def test_meets_constraints(flow_result):
    if flow_result.success:
        assert flow_result.meets()
        assert not flow_result.meets(max_area=flow_result.area / 2)
        assert not flow_result.meets(max_power=flow_result.power / 2)


def test_aggressive_target_fails_timing(small_spec):
    result = SPRFlow().run(small_spec, FlowOptions(target_clock_ghz=5.0), seed=1)
    assert not result.timing_met
    assert result.wns < 0


def test_log_text_format(flow_result):
    text = flow_result.log_text()
    assert "SP&R flow log" in text
    assert "droute.drvs[0]" in text
    assert "signoff.wns" in text


def test_step_log_series_printed_in_sorted_order():
    """Log text must not depend on series insertion order — parsers and
    golden-log diffs rely on a canonical layout."""
    from repro.eda.flow import StepLog

    forward = StepLog("opt", {"m": 1.0},
                      {"wns": [1.0, 2.0], "area": [3.0], "drvs": [4.0]})
    backward = StepLog("opt", {"m": 1.0},
                       {"drvs": [4.0], "area": [3.0], "wns": [1.0, 2.0]})
    assert forward.to_text() == backward.to_text()
    lines = forward.to_text().splitlines()
    series_lines = [ln for ln in lines if "[" in ln]
    assert series_lines == sorted(series_lines)
    assert series_lines[0].startswith("opt.area[0]")


def test_step_log_pickle_interns_names_and_keys(flow_result):
    """Unpickled logs are equal to the originals and share one copy of
    each step name and metric/series key (results kept by a campaign
    would otherwise each hold fresh copies)."""
    import pickle
    import sys

    from repro.eda.flow import StepLog

    loaded = pickle.loads(pickle.dumps(flow_result))
    assert loaded == flow_result
    assert loaded.log_text() == flow_result.log_text()
    for log in loaded.logs:
        assert log.step is sys.intern(log.step)
        for key in [*log.metrics, *log.series]:
            assert key is sys.intern(key)
    # names built at run time are fresh objects until a load interns them
    step, metric = "".join(["sign", "off"]), "".join(["ir_", "drop"])
    log = StepLog(step, {metric: 1.5}, {metric: [2.0]}, runtime_proxy=3.0)
    assert step is not sys.intern(step)
    again = pickle.loads(pickle.dumps(log))
    assert again == log
    assert again.step is sys.intern(step)
    assert next(iter(again.metrics)) is sys.intern(metric)
    assert next(iter(again.series)) is sys.intern(metric)


def test_flow_options_immutable_with_override():
    opts = FlowOptions(target_clock_ghz=0.7)
    faster = opts.with_(target_clock_ghz=0.9)
    assert opts.target_clock_ghz == 0.7
    assert faster.target_clock_ghz == 0.9
    assert faster.utilization == opts.utilization


def test_flow_options_validation():
    with pytest.raises(ValueError):
        FlowOptions(target_clock_ghz=0.0)
    with pytest.raises(ValueError):
        FlowOptions(synth_effort=2.0)
    with pytest.raises(ValueError):
        FlowOptions(utilization=0.99)


@pytest.mark.parametrize("bad, message", [
    (dict(target_clock_ghz=float("inf")), "target_clock_ghz"),
    (dict(aspect_ratio=0.05), "aspect_ratio"),
    (dict(aspect_ratio=20.0), "aspect_ratio"),
    (dict(placer_moves_per_cell=0), "placer_moves_per_cell"),
    (dict(spread_strength=0.0), "spread_strength"),
    (dict(spread_strength=11.0), "spread_strength"),
    (dict(cts_effort=7), "cts_effort"),
    (dict(cts_effort=-0.1), "cts_effort"),
    (dict(router_tracks_per_um=0.0), "router_tracks_per_um"),
    (dict(router_effort=-0.5), "router_effort"),
    (dict(router_effort=0.0), "router_effort"),
    (dict(router_effort=1.5), "router_effort"),
    (dict(router_max_iterations=0), "router_max_iterations"),
    (dict(opt_passes=-1), "opt_passes"),
    (dict(opt_passes=0), "opt_passes"),
    (dict(opt_cells_per_pass=0), "opt_cells_per_pass"),
    (dict(opt_guardband=-1.0), "opt_guardband"),
    (dict(power_recovery=1), "power_recovery"),
    (dict(router_tracks_per_um=float("inf")), "router_tracks_per_um"),
] + [
    # integer knobs reject non-integers up front, where a float used to
    # pass and raise TypeError inside place, opt or droute
    ({knob: bad}, knob)
    for knob in ("placer_moves_per_cell", "router_max_iterations",
                 "opt_passes", "opt_cells_per_pass")
    for bad in (2.5, 8.0, float("nan"), float("inf"))
] + [
    # the placer takes [0, 1]: these used to construct, then fail at
    # the place stage after synth and floorplan had run
    (dict(spread_strength=bad), "spread_strength") for bad in (1.5, 2.0, 10.0)
])
def test_every_knob_is_validated(bad, message):
    """All 14 knobs reject out-of-range values at construction, with
    the knob name in the message — not deep inside a flow step."""
    with pytest.raises(ValueError, match=message):
        FlowOptions(**bad)


def test_full_spread_strength_runs(small_spec):
    result = SPRFlow().run(small_spec, FlowOptions(spread_strength=1.0), seed=5)
    assert result.area > 0


def test_integer_knobs_accept_numpy_integers():
    options = FlowOptions(placer_moves_per_cell=np.int64(4),
                          router_max_iterations=np.int32(10))
    assert options.placer_moves_per_cell == 4
    assert options.router_max_iterations == 10


def test_reported_seed_reproduces_the_run(small_spec):
    """FlowResult.seed must replay the run through the same entry
    point (the seed-threading regression: run() used to report a
    derived step seed instead of the caller's)."""
    first = SPRFlow().run(small_spec, FlowOptions(target_clock_ghz=0.6), seed=21)
    assert first.seed == 21
    assert "seed=21" in first.log_text().splitlines()[0]
    replay = SPRFlow().run(small_spec, FlowOptions(target_clock_ghz=0.6),
                           seed=first.seed)
    assert replay.area == first.area
    assert replay.wns == first.wns
    assert replay.final_drvs == first.final_drvs
    assert replay.logs == first.logs


def test_implement_reports_its_own_seed(small_spec, library):
    from repro.eda.synthesis import synthesize

    netlist = synthesize(small_spec, library, effort=0.5, seed=7)  # private copy:
    result = SPRFlow().implement(netlist, FlowOptions(), seed=33)  # implement mutates
    assert result.seed == 33


def test_default_library_single_instance_under_concurrency():
    """Concurrent first callers must share one library (the lazy
    global used to race)."""
    import threading

    import repro.eda.flow as flow_mod

    original = flow_mod._LIBRARY
    try:
        flow_mod._LIBRARY = None
        barrier = threading.Barrier(4)
        seen = []

        def grab():
            barrier.wait()
            seen.append(flow_mod._default_library())

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(seen) == 4
        assert all(lib is seen[0] for lib in seen)
    finally:
        flow_mod._LIBRARY = original


def test_option_space_is_enormous():
    """The paper: 'well over ten thousand command-option combinations'."""
    assert FlowOptions.option_space_size() > 10_000


def test_clock_period_conversion():
    assert FlowOptions(target_clock_ghz=0.5).clock_period_ps == pytest.approx(2000.0)


def test_stop_callback_reaches_router(small_spec):
    calls = []

    def stop(history):
        calls.append(len(history))
        return False

    SPRFlow(stop_callback=stop).run(small_spec, FlowOptions(), seed=3)
    assert calls  # the detailed router consulted the callback


def test_guardband_option_inflates_area(small_spec):
    """A pessimistic flow does unneeded sizing work (Sec 3.2 claim)."""
    lean = SPRFlow().run(
        small_spec, FlowOptions(target_clock_ghz=0.9, opt_guardband=0.0,
                                power_recovery=False), seed=7
    )
    pessimistic = SPRFlow().run(
        small_spec, FlowOptions(target_clock_ghz=0.9, opt_guardband=200.0,
                                power_recovery=False), seed=7
    )
    assert pessimistic.area >= lean.area
