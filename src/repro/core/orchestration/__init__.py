"""Flow orchestration (paper Sec 2 Fig 5, Sec 3.1).

- :mod:`tree` — the tree of flow options: "thousands of potential
  options at each flow step, along with iteration, result in an
  enormous tree of possible flow trajectories."
- :mod:`robots` — stage-1 "robot engineers": expert-system automata
  that execute a design task to completion with no human (DRC fixing,
  timing closure, memory placement).
- :mod:`explorer` — the flow score that trajectory campaigns rank by,
  and a stage-4 tabular reinforcement learner over flow-repair actions.
  Stage-2/3 orchestration (concurrent trajectory search with winner
  cloning, plus doomed-run pruning) is the ``"explorer"`` strategy of
  :class:`repro.dse.DSEEngine`.
"""

from repro.core.orchestration.tree import FlowOptionTree, FlowStepOptions, default_option_tree
from repro.core.orchestration.robots import (
    DRCFixRobot,
    MemoryPlacementRobot,
    RobotReport,
    TimingClosureRobot,
)
from repro.core.orchestration.explorer import FlowRepairAgent

__all__ = [
    "FlowOptionTree",
    "FlowStepOptions",
    "default_option_tree",
    "DRCFixRobot",
    "TimingClosureRobot",
    "MemoryPlacementRobot",
    "RobotReport",
    "FlowRepairAgent",
]
