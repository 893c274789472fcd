"""What "better" means: scalar and Pareto campaign objectives.

Every strategy ranks candidates through :meth:`Objective.key` — a
higher-is-better float — while :meth:`Objective.value` reports the
raw objective in its natural units (area stays area, whatever the
direction).  The built-in ``"score"`` objective is
:func:`~repro.core.orchestration.explorer.default_score`, the flow
score the trajectory campaigns of paper Fig 5 rank by.

This is the one definition of every objective: a collected METRICS run
vector is scored through :class:`~repro.metrics.wrappers.RunVectorView`,
which reads it under :class:`FlowResult`'s names, so the DSE surrogate's
training rows and the data miner's target agree with the live ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.orchestration.explorer import default_score
from repro.eda.flow import FlowResult


@dataclass(frozen=True)
class Objective:
    """A named scalar objective over :class:`FlowResult`.

    ``direction`` is ``"max"`` or ``"min"``; ``requires_success``
    objectives rank failed runs at ``-inf`` (an unroutable block with a
    tiny area must not win an area minimization).
    """

    name: str
    fn: Callable[[FlowResult], float]
    direction: str = "max"
    requires_success: bool = False

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError("direction must be 'max' or 'min'")

    def value(self, result: FlowResult) -> float:
        """The raw objective in its natural units."""
        return float(self.fn(result))

    def key(self, result: FlowResult) -> float:
        """Higher-is-better ranking key."""
        if self.requires_success and not result.success:
            return -math.inf
        raw = self.value(result)
        return raw if self.direction == "max" else -raw

    def update_front(self, front: List[FlowResult],
                     result: FlowResult) -> List[FlowResult]:
        """Scalar objectives keep no front."""
        return front

    @classmethod
    def from_callable(cls, fn: Callable[[FlowResult], float],
                      name: str = "custom") -> "Objective":
        return cls(name=name, fn=fn, direction="max")


@dataclass(frozen=True)
class ParetoObjective:
    """Joint objective over several axes (e.g. area / WNS / power).

    Ranking scalarizes with ``weights`` (candidate generation needs a
    total order), while :meth:`update_front` maintains the actual
    non-dominated set, reported in ``DSEResult.pareto``.  The value is
    the scalarized key, so its ``direction`` is ``"max"``.
    """

    direction = "max"

    objectives: Tuple[Objective, ...]
    weights: Tuple[float, ...] = ()
    name: str = "pareto"
    requires_success: bool = True
    _weights: Tuple[float, ...] = field(init=False, repr=False, default=())

    def __post_init__(self):
        if len(self.objectives) < 2:
            raise ValueError("a Pareto objective needs at least 2 axes")
        weights = self.weights or tuple(1.0 for _ in self.objectives)
        if len(weights) != len(self.objectives):
            raise ValueError("one weight per objective axis")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        object.__setattr__(self, "_weights", tuple(float(w) for w in weights))

    def value(self, result: FlowResult) -> float:
        return self.key(result)

    def key(self, result: FlowResult) -> float:
        if self.requires_success and not result.success:
            return -math.inf
        return float(sum(w * o.key(result)
                         for w, o in zip(self._weights, self.objectives)))

    def _dominates(self, a: FlowResult, b: FlowResult) -> bool:
        keys_a = [o.key(a) for o in self.objectives]
        keys_b = [o.key(b) for o in self.objectives]
        return (all(x >= y for x, y in zip(keys_a, keys_b))
                and any(x > y for x, y in zip(keys_a, keys_b)))

    def update_front(self, front: List[FlowResult],
                     result: FlowResult) -> List[FlowResult]:
        """The non-dominated set after observing ``result``."""
        if self.requires_success and not result.success:
            return front
        if any(self._dominates(kept, result) for kept in front):
            return front
        survivors = [kept for kept in front
                     if not self._dominates(result, kept)]
        survivors.append(result)
        return survivors


def _area(result: FlowResult) -> float:
    return result.area


def _power(result: FlowResult) -> float:
    return result.power


def _wns(result: FlowResult) -> float:
    return result.wns


def _frequency(result: FlowResult) -> float:
    return result.achieved_ghz


#: objective name -> zero-argument factory
OBJECTIVES: Dict[str, Callable[[], object]] = {
    "score": lambda: Objective("score", default_score, "max"),
    "area": lambda: Objective("area", _area, "min", requires_success=True),
    "power": lambda: Objective("power", _power, "min", requires_success=True),
    "wns": lambda: Objective("wns", _wns, "max"),
    "frequency": lambda: Objective("frequency", _frequency, "max",
                                   requires_success=True),
    "pareto": lambda: ParetoObjective(
        objectives=(
            Objective("area", _area, "min", requires_success=True),
            Objective("wns", _wns, "max"),
            Objective("power", _power, "min", requires_success=True),
        ),
    ),
}


def resolve_objective(objective) -> object:
    """Accept an objective name, a bare callable, or an instance."""
    if isinstance(objective, (Objective, ParetoObjective)):
        return objective
    if isinstance(objective, str):
        if objective not in OBJECTIVES:
            known = ", ".join(sorted(OBJECTIVES))
            raise ValueError(f"unknown objective {objective!r} (known: {known})")
        return OBJECTIVES[objective]()
    if callable(objective):
        if objective is default_score:
            return OBJECTIVES["score"]()
        return Objective.from_callable(objective)
    raise TypeError(f"cannot interpret {objective!r} as an objective")
