"""Flow-option tree, robot engineers, trajectory exploration, RL repair."""

import numpy as np
import pytest

from repro.core.orchestration import (
    DRCFixRobot,
    FlowOptionTree,
    FlowRepairAgent,
    FlowStepOptions,
    MemoryPlacementRobot,
    TimingClosureRobot,
    default_flow_space,
)
from repro.dse import DSEEngine
from repro.eda.flow import FlowOptions
from repro.eda.floorplan import Floorplan
from repro.eda.synthesis import DesignSpec


@pytest.fixture(scope="module")
def robot_spec():
    return DesignSpec("robot", n_gates=120, n_flops=16, n_inputs=8, n_outputs=8,
                      depth=10, locality=0.8)


# ------------------------------------------------------------------- tree
def test_default_tree_is_enormous():
    """The paper: 'well over ten thousand command-option combinations'."""
    tree = default_flow_space()
    assert tree.n_trajectories > 10_000


def test_tree_enumeration_and_sampling(rng):
    tree = default_flow_space()
    trajectories = list(tree.enumerate(limit=10))
    assert len(trajectories) == 10
    sample = tree.sample(rng)
    assert set(sample) == {name for _, name in tree.option_names()}
    options = tree.to_flow_options(sample)
    assert isinstance(options, FlowOptions)


def test_tree_validation():
    with pytest.raises(ValueError):
        FlowOptionTree(steps=[])
    with pytest.raises(ValueError):
        FlowStepOptions("s", {"x": []})
    step = FlowStepOptions("s", {"x": [1, 2]})
    with pytest.raises(ValueError):
        FlowOptionTree(steps=[step, step])


def test_step_combination_count():
    step = FlowStepOptions("s", {"a": [1, 2, 3], "b": [True, False]})
    assert step.n_combinations == 6


# ------------------------------------------------------------------ robots
def test_drc_robot_fixes_congested_block(robot_spec):
    # utilization 0.95 + weak router: initially unroutable
    bad = FlowOptions(target_clock_ghz=0.4, utilization=0.95,
                      router_effort=0.3, router_tracks_per_um=9.0)
    report = DRCFixRobot(max_attempts=7).run(robot_spec, bad, seed=1)
    assert report.attempts >= 1
    assert report.solved
    assert report.final_result.routed
    assert report.actions  # it had to do something


def test_drc_robot_gives_up_gracefully(robot_spec):
    hopeless = FlowOptions(target_clock_ghz=0.4, utilization=0.95,
                           router_tracks_per_um=1.0)
    report = DRCFixRobot(max_attempts=2).run(robot_spec, hopeless, seed=1)
    assert report.attempts == 2
    assert not report.solved


def test_timing_robot_closes_by_concession(robot_spec):
    # a truly infeasible target: the robot must eventually concede frequency
    greedy = FlowOptions(target_clock_ghz=8.0, opt_passes=2)
    report = TimingClosureRobot(max_attempts=8, frequency_step=2.0).run(
        robot_spec, greedy, seed=2
    )
    assert report.solved
    assert report.final_result.timing_met
    assert "concede target frequency" in report.actions
    # the achieved target is below the original ask: "aim low" mechanized
    assert report.final_result.options.target_clock_ghz < 8.0


def test_timing_robot_noop_when_already_met(robot_spec):
    easy = FlowOptions(target_clock_ghz=0.3)
    report = TimingClosureRobot().run(robot_spec, easy, seed=3)
    assert report.solved
    assert report.attempts == 1
    assert not report.actions


def test_memory_robot_places_macros():
    fp = Floorplan(width=30.0, height=30.0, utilization=0.7)
    robot = MemoryPlacementRobot(grid=5)
    report = robot.run(fp, [(8.0, 6.0), (6.0, 6.0)], seed=4)
    assert report.solved
    assert len(fp.macros) == 2
    assert not fp.macros[0].overlaps(fp.macros[1])


def test_memory_robot_rejects_oversized():
    fp = Floorplan(width=10.0, height=10.0, utilization=0.7)
    report = MemoryPlacementRobot().run(fp, [(20.0, 5.0)], seed=5)
    assert not report.solved
    assert not fp.macros


def test_robot_validation():
    with pytest.raises(ValueError):
        DRCFixRobot(max_attempts=0)
    with pytest.raises(ValueError):
        TimingClosureRobot(frequency_step=0.0)
    with pytest.raises(ValueError):
        MemoryPlacementRobot(grid=1)


# --------------------------------------------------------------- explorer
def test_explorer_finds_successful_trajectory(robot_spec):
    explorer = DSEEngine(strategy="explorer",
                         params={"n_concurrent": 3, "n_rounds": 2})
    result = explorer.run(robot_spec, seed=6)
    assert result.n_runs == 6
    assert result.best_result is not None
    assert result.trace == sorted(result.trace)  # monotone best


def test_explorer_validation(robot_spec):
    for params in ({"n_concurrent": 1}, {"n_rounds": 0},
                   {"survivor_fraction": 0.0}):
        with pytest.raises(ValueError):
            DSEEngine(strategy="explorer", params=params).run(robot_spec)


# ----------------------------------------------------------------- stage 4
def test_repair_agent_learns_policy(robot_spec):
    agent = FlowRepairAgent(epsilon=0.5)
    start = FlowOptions(target_clock_ghz=2.5, opt_passes=2)  # broken timing
    policy = agent.train(robot_spec, start, n_episodes=3, steps_per_episode=3, seed=7)
    assert policy  # visited at least one broken state
    for state, action in policy.items():
        assert action in FlowRepairAgent.ACTIONS
        assert len(state) == 2


def test_repair_agent_actions_modify_options():
    agent = FlowRepairAgent()
    base = FlowOptions()
    for action in FlowRepairAgent.ACTIONS:
        changed = agent.apply_action(base, action)
        assert changed != base
    with pytest.raises(ValueError):
        agent.apply_action(base, "reboot")


def test_repair_agent_state_buckets(robot_spec):
    from repro.eda.flow import SPRFlow

    good = SPRFlow().run(robot_spec, FlowOptions(target_clock_ghz=0.3), seed=8)
    state = FlowRepairAgent.state_of(good)
    assert state[0] == 0  # timing met
    bad = SPRFlow().run(robot_spec, FlowOptions(target_clock_ghz=5.0), seed=8)
    assert FlowRepairAgent.state_of(bad)[0] > 0


def test_repair_agent_validation():
    with pytest.raises(ValueError):
        FlowRepairAgent(alpha=0.0)
    with pytest.raises(ValueError):
        FlowRepairAgent(gamma=1.0)
