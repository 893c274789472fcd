"""The SP&R flow runner: synthesis → floorplan → place → CTS → route → opt → signoff.

:class:`SPRFlow` is the substrate's stand-in for a commercial RTL-to-GDS
flow.  A run takes a :class:`~repro.eda.synthesis.DesignSpec`, a
:class:`FlowOptions` bundle (the "command options" of the paper's
Sec 2 — utilizations, efforts, guardbands, ...) and a seed, and returns
a :class:`FlowResult` with QoR metrics and per-step logs.

Run-to-run noise (paper Fig 3) is *emergent*: the synthesis
restructurer, the placement annealer, CTS and the optimizer all make
seed-dependent tie-breaking choices, and the closer the target
frequency sits to the design's feasibility wall, the more such choices
the optimizer is forced to make — so QoR variance grows with target
aggressiveness without any explicit noise injection.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional

import numpy as np

from repro.eda.netlist import Netlist
from repro.eda.synthesis import DesignSpec


@dataclass(frozen=True)
class FlowOptions:
    """One point in the flow's option space.

    The paper notes a P&R tool has "well over ten thousand
    command-option combinations"; :meth:`option_space_size` counts ours.
    """

    target_clock_ghz: float = 0.8
    synth_effort: float = 0.5
    utilization: float = 0.70
    aspect_ratio: float = 1.0
    placer_moves_per_cell: int = 8
    spread_strength: float = 0.8
    cts_effort: float = 0.5
    router_tracks_per_um: float = 16.0
    router_effort: float = 0.6
    router_max_iterations: int = 20
    opt_passes: int = 6
    opt_cells_per_pass: int = 24
    opt_guardband: float = 0.0
    power_recovery: bool = True

    def __post_init__(self):
        for knob in ("placer_moves_per_cell", "router_max_iterations",
                     "opt_passes", "opt_cells_per_pass"):
            value = getattr(self, knob)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{knob} must be an integer, got {value!r}")
        if not self.target_clock_ghz > 0 or not np.isfinite(self.target_clock_ghz):
            raise ValueError("target_clock_ghz must be positive and finite")
        if not 0.0 <= self.synth_effort <= 1.0:
            raise ValueError("synth_effort must be in [0, 1]")
        if not 0.05 <= self.utilization <= 0.98:
            raise ValueError("utilization must be in [0.05, 0.98]")
        if not 0.1 <= self.aspect_ratio <= 10.0:
            raise ValueError("aspect_ratio must be in [0.1, 10]")
        if self.placer_moves_per_cell < 1:
            raise ValueError("placer_moves_per_cell must be >= 1")
        if not 0.0 < self.spread_strength <= 1.0:
            raise ValueError("spread_strength must be in (0, 1]")
        if not 0.0 <= self.cts_effort <= 1.0:
            raise ValueError("cts_effort must be in [0, 1]")
        if not self.router_tracks_per_um > 0 or not np.isfinite(self.router_tracks_per_um):
            raise ValueError("router_tracks_per_um must be positive and finite")
        if not 0.0 < self.router_effort <= 1.0:
            raise ValueError("router_effort must be in (0, 1]")
        if self.router_max_iterations < 1:
            raise ValueError("router_max_iterations must be >= 1")
        if self.opt_passes < 1:
            raise ValueError("opt_passes must be >= 1")
        if self.opt_cells_per_pass < 1:
            raise ValueError("opt_cells_per_pass must be >= 1")
        if self.opt_guardband < 0 or not np.isfinite(self.opt_guardband):
            raise ValueError("opt_guardband must be non-negative and finite")
        if not isinstance(self.power_recovery, bool):
            raise ValueError("power_recovery must be a bool")

    @property
    def clock_period_ps(self) -> float:
        return 1000.0 / self.target_clock_ghz

    def to_dict(self) -> Dict:
        """The knobs by field name, in field order: ``asdict``'s dict
        without its deep copy of each (scalar) value."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def with_(self, **kwargs) -> "FlowOptions":
        """A copy with some options overridden."""
        return replace(self, **kwargs)

    @staticmethod
    def option_space_size(
        n_levels_continuous: int = 5,
    ) -> int:
        """Combinations if each knob is quantized to a few levels."""
        continuous = [
            "target_clock_ghz",
            "synth_effort",
            "utilization",
            "aspect_ratio",
            "spread_strength",
            "cts_effort",
            "router_tracks_per_um",
            "router_effort",
            "opt_guardband",
        ]
        discrete = {
            "placer_moves_per_cell": 4,
            "router_max_iterations": 3,
            "opt_passes": 4,
            "opt_cells_per_pass": 3,
            "power_recovery": 2,
        }
        total = 1
        for _ in continuous:
            total *= n_levels_continuous
        for n in discrete.values():
            total *= n
        return total


@dataclass
class StepLog:
    """One flow step's logfile record."""

    step: str
    metrics: Dict[str, float] = field(default_factory=dict)
    series: Dict[str, List[float]] = field(default_factory=dict)
    runtime_proxy: float = 0.0

    def __reduce__(self):
        return (load_step_log,
                (self.step, self.metrics, self.series, self.runtime_proxy))

    def to_text(self) -> str:
        lines = [f"#--- step {self.step} (cost {self.runtime_proxy:.0f}) ---"]
        for key, value in sorted(self.metrics.items()):
            lines.append(f"{self.step}.{key} = {value:.4f}")
        for key, values in sorted(self.series.items()):
            for i, v in enumerate(values):
                lines.append(f"{self.step}.{key}[{i}] = {v:.4f}")
        return "\n".join(lines)


def load_step_log(
    step: str,
    metrics: Dict[str, float],
    series: Dict[str, List[float]],
    runtime_proxy: float,
) -> StepLog:
    """A :class:`StepLog` from its fields, with the step name and the
    metric and series keys interned.  Unpickling and the result cache's
    disk tier both load logs through here, so the many results a
    campaign keeps share one copy of each key string instead of holding
    a fresh one per log."""
    intern = sys.intern
    return StepLog(
        intern(step),
        {intern(key): value for key, value in metrics.items()},
        {intern(key): values for key, values in series.items()},
        runtime_proxy,
    )


@dataclass
class FlowResult:
    """End-to-end QoR of one flow run."""

    design: str
    options: FlowOptions
    seed: int
    area: float = 0.0  # um^2, cells + clock buffers
    power: float = 0.0  # uW at target frequency
    leakage: float = 0.0
    wns: float = 0.0  # ps at signoff
    tns: float = 0.0
    achieved_ghz: float = 0.0
    hpwl: float = 0.0
    final_drvs: int = 0
    routed: bool = False
    timing_met: bool = False
    logs: List[StepLog] = field(default_factory=list)
    runtime_proxy: float = 0.0

    @property
    def success(self) -> bool:
        return self.routed and self.timing_met

    def meets(self, max_area: Optional[float] = None, max_power: Optional[float] = None) -> bool:
        """Success under optional area/power constraints (MAB reward)."""
        if not self.success:
            return False
        if max_area is not None and self.area > max_area:
            return False
        if max_power is not None and self.power > max_power:
            return False
        return True

    def log_text(self) -> str:
        header = (
            f"# SP&R flow log: design={self.design} seed={self.seed} "
            f"target={self.options.target_clock_ghz:.3f}GHz"
        )
        return "\n".join([header] + [log.to_text() for log in self.logs])


class SPRFlow:
    """The full synthesis/place/route flow over the simulated substrate.

    Since the stage decomposition, this class is a thin driver over the
    composable pipeline in :mod:`repro.eda.stages`: each stage (synth,
    floorplan, place, CTS, global route, opt, signoff, detailed route)
    is its own tool consuming and producing explicit artifacts.  The
    driver is API- and bit-identical to the historical monolithic
    implementation — same step-seed draw order, same step logs, same
    :class:`FlowResult` — which the staged-vs-monolith equivalence
    suite pins against a frozen copy of the old body.
    """

    def __init__(self, stop_callback=None):
        """``stop_callback(history) -> bool`` is forwarded to detailed
        routing (the hook doomed-run predictors plug into)."""
        self.stop_callback = stop_callback

    def run(self, spec: DesignSpec, options: FlowOptions, seed: int = 0) -> FlowResult:
        """Full flow from a design spec (synthesis included)."""
        from repro.eda.stages.runner import execute_pipeline

        return execute_pipeline(spec, options, seed,
                                stop_callback=self.stop_callback)

    def implement(self, netlist: Netlist, options: FlowOptions,
                  seed: int = 0) -> FlowResult:
        """Physical implementation of an existing netlist.

        The entry point partition-driven flows use: each block netlist
        (already extracted) goes through floorplan -> place -> CTS ->
        route -> opt -> signoff on its own.  The flow works on a private
        copy: ``netlist`` itself is never modified, so repeating a call
        repeats its result.
        """
        from repro.eda.stages.runner import execute_pipeline

        return execute_pipeline(netlist, options, seed,
                                stop_callback=self.stop_callback)


_LIBRARY = None
_LIBRARY_LOCK = threading.Lock()


def _default_library():
    """Lazily built, shared default library (cells are immutable).

    Double-checked locking: concurrent first callers (e.g. threads
    fanning jobs into an executor) must not each build a library —
    consumers compare cells by identity, and a torn global is visible
    garbage.  Worker processes instead build it eagerly in the
    executor's initializer.
    """
    global _LIBRARY
    if _LIBRARY is None:
        with _LIBRARY_LOCK:
            if _LIBRARY is None:
                from repro.eda.library import make_default_library

                _LIBRARY = make_default_library()
    return _LIBRARY
