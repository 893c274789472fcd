"""The search space: the flow-option tree's sampling contracts."""

import math

import numpy as np
import pytest

from repro.dse import default_flow_space

#: option order of the default tree, one value per column below
OPTIONS = ("target_clock_ghz", "synth_effort", "utilization", "aspect_ratio",
           "placer_moves_per_cell", "spread_strength", "cts_effort",
           "router_effort", "router_max_iterations", "opt_passes",
           "opt_guardband")

#: seed -> (the sample, then each point of a six-perturb chain, then
#: the next 31-bit draw): the explorer's draw stream, pinned
STREAMS = {
    1: ([[0.65, 0.5, 0.85, 1.25, 4, 0.6, 0.9, 0.8, 20, 4, 50.0],
         [0.65, 0.5, 0.85, 1.25, 16, 0.6, 0.9, 0.8, 20, 4, 50.0],
         [0.65, 0.5, 0.75, 1.25, 16, 0.6, 0.9, 0.8, 20, 4, 50.0],
         [0.65, 0.5, 0.75, 1.25, 16, 0.6, 0.3, 0.8, 20, 4, 50.0],
         [0.65, 0.9, 0.75, 1.25, 16, 0.6, 0.3, 0.8, 20, 4, 50.0],
         [0.65, 0.9, 0.75, 1.25, 16, 0.6, 0.3, 0.8, 20, 4, 50.0],
         [0.65, 0.9, 0.85, 1.25, 16, 0.6, 0.3, 0.8, 20, 4, 50.0]],
        266112162),
    7: ([[0.8, 0.5, 0.75, 1.25, 8, 0.8, 0.9, 0.4, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 1.25, 8, 0.8, 0.9, 0.4, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 1.25, 8, 0.6, 0.9, 0.4, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 1.25, 8, 0.6, 0.9, 0.6, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 1.25, 8, 0.6, 0.9, 0.6, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 0.8, 8, 0.6, 0.9, 0.6, 20, 4, 0.0],
         [0.8, 0.5, 0.75, 0.8, 8, 0.6, 0.9, 0.6, 20, 4, 0.0]],
        1083509134),
}


def test_sample_is_seed_deterministic():
    space = default_flow_space()
    a = space.sample(np.random.default_rng(3))
    b = space.sample(np.random.default_rng(3))
    assert a == b
    assert set(a) == {name for _, name in space.option_names()}


@pytest.mark.parametrize("seed", sorted(STREAMS))
def test_sample_and_perturb_draw_stream_is_pinned(seed):
    """``sample`` then a chain of ``perturb`` calls: every point and the
    draw that follows them, as the explorer consumes the stream.  A
    moved, added or dropped draw changes every later campaign run."""
    points, next_draw = STREAMS[seed]
    space = default_flow_space()
    rng = np.random.default_rng(seed)
    point = space.sample(rng)
    chain = [point]
    for _ in range(len(points) - 1):
        donor = dict(point)
        point = space.perturb(point, rng)
        assert chain[-1] == donor  # the donor is never modified
        assert sum(point[k] != donor[k] for k in donor) <= 1
        chain.append(point)
    assert [list(p) for p in chain] == [list(OPTIONS)] * len(points)
    assert [list(p.values()) for p in chain] == points
    assert int(rng.integers(0, 2**31 - 1)) == next_draw


class _RecordingRng:
    """A generator that records each ``integers`` draw as (high, value)."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, low, high):
        assert low == 0
        value = int(self._rng.integers(low, high))
        self.draws.append((high, value))
        return value


def test_sample_and_perturb_draw_order():
    """A sample draws once per option, in step order, over that option's
    menu; a perturbation draws three times: step, option, value."""
    space = default_flow_space()
    rng = _RecordingRng(11)
    point = space.sample(rng)
    menus = [values for step in space.steps for values in step.options.values()]
    assert [high for high, _ in rng.draws] == [len(values) for values in menus]
    assert list(point.values()) == [values[i] for values, (_, i) in zip(menus, rng.draws)]
    for _ in range(10):
        rng.draws.clear()
        clone = space.perturb(point, rng)
        (n_steps, s), (n_options, o), (n_values, v) = rng.draws
        step = space.steps[s]
        option = list(step.options)[o]
        assert (n_steps, n_options, n_values) == (
            len(space.steps), len(step.options), len(step.options[option]))
        assert clone == {**point, option: step.options[option][v]}


def test_perturb_changes_at_most_one_flow_option():
    space = default_flow_space()
    menus = {name: values for step in space.steps
             for name, values in step.options.items()}
    rng = np.random.default_rng(4)
    point = space.sample(rng)
    donor = dict(point)
    changes = 0
    for _ in range(20):
        clone = space.perturb(point, rng)
        changed = [k for k in point if clone[k] != point[k]]
        assert len(changed) <= 1
        assert all(clone[k] in menus[k] for k in clone)
        changes += len(changed)
    assert point == donor  # perturb returns a copy
    assert changes > 0


def test_n_points_and_enumerate():
    space = default_flow_space()
    menus = [values for step in space.steps for values in step.options.values()]
    assert space.n_trajectories == math.prod(len(values) for values in menus) == 139_968
    points = list(space.enumerate(limit=10))
    assert len(points) == 10
    assert len({tuple(point.values()) for point in points}) == 10
    for point in points:
        options = space.to_flow_options(point)  # every enumerated point materializes
        assert all(getattr(options, name) == value for name, value in point.items())
    with pytest.raises(ValueError):
        next(space.enumerate(limit=0))


def test_default_flow_space_custom_frequencies():
    space = default_flow_space(target_frequencies=(0.4, 0.9))
    menus = [
        list(values)
        for step in space.steps
        for name, values in step.options.items()
        if name == "target_clock_ghz"
    ]
    assert menus == [[0.4, 0.9]]
