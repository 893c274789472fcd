"""Declarative search spaces over :class:`~repro.eda.flow.FlowOptions`.

A :class:`SearchSpace` wraps a
:class:`~repro.core.orchestration.tree.FlowOptionTree` — the flow-step
option menus of paper Fig 5(a) — and optionally a set of
design-generator knobs.  Its ``sample``/``perturb`` draw order is part
of the trajectory strategy's determinism contract (same seed, same
campaign, at any worker count): one ``rng.integers`` draw per option in
step order for a sample, and exactly three draws (step, option, value)
for a perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.orchestration.tree import FlowOptionTree, default_option_tree
from repro.eda.flow import FlowOptions


@dataclass
class SearchSpace:
    """The knobs a campaign may turn and the values they may take.

    ``design_knobs`` extends the flow-option tree with design-generator
    parameters (e.g. a :class:`~repro.eda.synthesis.DesignSpec` field
    sweep); they ride along in every trajectory dict but are stripped
    before :meth:`to_flow_options`.
    """

    tree: FlowOptionTree = field(default_factory=default_option_tree)
    design_knobs: Dict[str, List] = field(default_factory=dict)

    def __post_init__(self):
        flow_names = {name for _, name in self.tree.option_names()}
        for name, values in self.design_knobs.items():
            if not values:
                raise ValueError(f"design knob {name!r} has no values")
            if name in flow_names:
                raise ValueError(f"design knob {name!r} shadows a flow option")

    # ------------------------------------------------------------ geometry
    @property
    def n_points(self) -> int:
        total = self.tree.n_trajectories
        for values in self.design_knobs.values():
            total *= len(values)
        return total

    def option_names(self) -> List[Tuple[str, str]]:
        names = self.tree.option_names()
        names += [("design", name) for name in self.design_knobs]
        return names

    # ------------------------------------------------------------ sampling
    def sample(self, rng: np.random.Generator) -> Dict[str, object]:
        """One uniformly random point; flow options draw first, in the
        tree's step order (the explorer-compatible stream), then any
        design knobs in declaration order."""
        choice = self.tree.sample(rng)
        for name, values in self.design_knobs.items():
            choice[name] = values[int(rng.integers(0, len(values)))]
        return choice

    def perturb(self, point: Dict[str, object],
                rng: np.random.Generator) -> Dict[str, object]:
        """Clone a point, re-rolling one random flow option — the exact
        three-draw perturbation of the historical explorer."""
        clone = dict(point)
        step = self.tree.steps[int(rng.integers(0, len(self.tree.steps)))]
        option = list(step.options)[int(rng.integers(0, len(step.options)))]
        values = step.options[option]
        clone[option] = values[int(rng.integers(0, len(values)))]
        return clone

    def enumerate(self, limit: int = 1000) -> Iterator[Dict[str, object]]:
        """Flat {option: value} points, flow-tree order (no design knobs)."""
        return self.tree.enumerate(limit=limit)

    # ------------------------------------------------------- materializing
    def to_flow_options(self, point: Dict[str, object]) -> FlowOptions:
        """Materialize a point's flow-option part as :class:`FlowOptions`."""
        flow_part = {k: v for k, v in point.items() if k not in self.design_knobs}
        return FlowOptions(**flow_part)

    def design_part(self, point: Dict[str, object]) -> Dict[str, object]:
        return {k: point[k] for k in self.design_knobs if k in point}

    # ------------------------------------------------------------ features
    def feature_names(self) -> List[str]:
        """Stable feature order for surrogate models."""
        return [name for _, name in self.option_names()]

    def features(self, point: Dict[str, object]) -> List[float]:
        """A point as a numeric surrogate feature vector (missing knobs
        contribute 0.0, non-numeric values their index in the menu)."""
        values_of: Dict[str, List] = {}
        for step in self.tree.steps:
            values_of.update(step.options)
        values_of.update(self.design_knobs)
        row = []
        for name in self.feature_names():
            value = point.get(name)
            if value is None:
                row.append(0.0)
            elif isinstance(value, (int, float, np.floating, np.integer)):
                row.append(float(value))
            else:
                row.append(float(values_of[name].index(value)))
        return row


def default_flow_space(
    target_frequencies: Optional[Tuple[float, ...]] = None,
) -> SearchSpace:
    """The substrate flow's own option tree as a search space."""
    if target_frequencies is None:
        return SearchSpace(tree=default_option_tree())
    return SearchSpace(tree=default_option_tree(target_frequencies))
