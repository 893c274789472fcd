"""The tree of flow options (paper Fig 5(a)).

Each flow step exposes a set of named options with discrete candidate
values; a *trajectory* is one choice per option down the whole flow.
The tree's size — the product over steps — is what makes naive search
"hopeless" and motivates bandits, GWTW and pruning.

The tree is also the search space every flow campaign of
:class:`repro.dse.DSEEngine` draws from.  Its ``sample``/``perturb``
draw order is part of the explorer's determinism contract (same seed,
same campaign, at any worker count): one ``rng.integers`` draw per
option in step order for a sample, and exactly three draws (step,
option, value) for a perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product
from typing import Dict, Iterator, List, Optional, Tuple

from repro.eda.flow import FlowOptions


@dataclass
class FlowStepOptions:
    """One flow step's option menu: name -> candidate values."""

    step: str
    options: Dict[str, List] = field(default_factory=dict)

    def __post_init__(self):
        for name, values in self.options.items():
            if not values:
                raise ValueError(f"option {name} of step {self.step} has no values")

    @property
    def n_combinations(self) -> int:
        total = 1
        for values in self.options.values():
            total *= len(values)
        return total


@dataclass
class FlowOptionTree:
    """The whole flow's option space, step by step."""

    steps: List[FlowStepOptions]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("tree needs at least one step")
        names = [s.step for s in self.steps]
        if len(set(names)) != len(names):
            raise ValueError("duplicate step names")

    @property
    def n_trajectories(self) -> int:
        """Number of root-to-leaf paths (no iteration loops counted)."""
        total = 1
        for step in self.steps:
            total *= step.n_combinations
        return total

    def option_names(self) -> List[Tuple[str, str]]:
        return [(s.step, name) for s in self.steps for name in s.options]

    def enumerate(self, limit: int = 1000) -> Iterator[Dict[str, object]]:
        """Yield flat {option: value} trajectories (up to ``limit``)."""
        if limit < 1:
            raise ValueError("limit must be >= 1")
        names = []
        value_lists = []
        for step in self.steps:
            for option, values in step.options.items():
                names.append(option)
                value_lists.append(values)
        for combo in islice(product(*value_lists), limit):
            yield dict(zip(names, combo))

    def n_trajectories_with_iteration(
        self, p_repeat: float = 0.3, max_repeats: int = 2
    ) -> float:
        """Expected trajectory count when steps can loop (Fig 5(a)).

        The figure's tree includes iteration arrows: a step that fails
        re-enters with new options.  If every step independently repeats
        with probability ``p_repeat`` up to ``max_repeats`` times, each
        step's effective branching multiplies by the expected number of
        visits, compounding the explosion.
        """
        if not 0.0 <= p_repeat < 1.0:
            raise ValueError("p_repeat must be in [0, 1)")
        if max_repeats < 0:
            raise ValueError("max_repeats must be >= 0")
        expected_visits = sum(p_repeat**k for k in range(max_repeats + 1))
        total = 1.0
        for step in self.steps:
            total *= step.n_combinations ** expected_visits
        return total

    def sample(self, rng) -> Dict[str, object]:
        """One uniformly random trajectory."""
        choice = {}
        for step in self.steps:
            for option, values in step.options.items():
                choice[option] = values[int(rng.integers(0, len(values)))]
        return choice

    def perturb(self, trajectory: Dict[str, object], rng) -> Dict[str, object]:
        """A copy of ``trajectory`` with one random option re-rolled:
        three draws, for the step, the option and the value."""
        clone = dict(trajectory)
        step = self.steps[int(rng.integers(0, len(self.steps)))]
        option = list(step.options)[int(rng.integers(0, len(step.options)))]
        values = step.options[option]
        clone[option] = values[int(rng.integers(0, len(values)))]
        return clone

    @staticmethod
    def to_flow_options(trajectory: Dict[str, object]) -> FlowOptions:
        """Materialize a trajectory as runnable :class:`FlowOptions`."""
        return FlowOptions(**trajectory)


def default_flow_space(
    target_frequencies: Optional[Tuple[float, ...]] = None,
) -> FlowOptionTree:
    """The substrate flow's own option tree, the default search space.

    ``target_frequencies`` replaces the synthesis step's target-clock
    menu (default 0.5 to 0.8 GHz).  Kept deliberately coarse (6 x 3 x
    4 x ... combinations); even so the trajectory count is over a
    hundred thousand — the paper's point that "even identifying a best
    gate-level netlist ... is beyond the grasp of human engineers".
    """
    if target_frequencies is None:
        target_frequencies = (0.5, 0.6, 0.65, 0.7, 0.75, 0.8)
    return FlowOptionTree(
        steps=[
            FlowStepOptions("synth", {
                "target_clock_ghz": list(target_frequencies),
                "synth_effort": [0.2, 0.5, 0.9],
            }),
            FlowStepOptions("floorplan", {
                "utilization": [0.55, 0.65, 0.75, 0.85],
                "aspect_ratio": [0.8, 1.0, 1.25],
            }),
            FlowStepOptions("place", {
                "placer_moves_per_cell": [4, 8, 16],
                "spread_strength": [0.6, 0.8],
            }),
            FlowStepOptions("cts", {"cts_effort": [0.3, 0.6, 0.9]}),
            FlowStepOptions("route", {
                "router_effort": [0.4, 0.6, 0.8],
                "router_max_iterations": [20, 40],
            }),
            FlowStepOptions("opt", {
                "opt_passes": [4, 8],
                "opt_guardband": [0.0, 20.0, 50.0],
            }),
        ]
    )
