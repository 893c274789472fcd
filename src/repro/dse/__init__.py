"""Declarative design-space exploration (paper Fig 5(b), unified).

GWTW trajectory exploration, batched bandits, adaptive multistart and
GWTW annealing are plugins of one engine here, sharing its budget,
executor and metrics reporting.  A campaign is declared as:

- a :class:`~repro.core.orchestration.tree.FlowOptionTree` (which
  knobs, which values; :func:`default_flow_space` by default),
- an :class:`~repro.dse.objective.Objective` (what "better" means,
  scalar or Pareto),
- a :class:`~repro.dse.budget.Budget` (runs / runtime proxy),
- a strategy name from the registry,

and executed by :meth:`DSEEngine.run`, which returns a unified
:class:`~repro.dse.result.DSEResult`.  Two cross-cutting layers ride
on the shared engine: surrogate-guided candidate proposal
(:mod:`repro.dse.surrogate`) and online doomed-run killing
(:mod:`repro.dse.kill`) through the executor's ``stop_callback`` path.

:meth:`DSEEngine.run` is the only search entrypoint; ``docs/dse.md``
maps each removed pre-engine call to its engine call.
"""

from repro.core.orchestration.tree import default_flow_space
from repro.dse.budget import Budget, BudgetTracker
from repro.dse.engine import DSEEngine
from repro.dse.kill import KillPolicy, train_kill_policy
from repro.dse.objective import OBJECTIVES, Objective, ParetoObjective
from repro.dse.registry import Strategy, available_strategies, register_strategy
from repro.dse.result import DSEResult
from repro.dse.surrogate import SurrogateProposer

__all__ = [
    "Budget",
    "BudgetTracker",
    "DSEEngine",
    "DSEResult",
    "KillPolicy",
    "OBJECTIVES",
    "Objective",
    "ParetoObjective",
    "Strategy",
    "SurrogateProposer",
    "available_strategies",
    "default_flow_space",
    "register_strategy",
    "train_kill_policy",
]
