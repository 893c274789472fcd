"""Stage protocol and the artifact state flowing between stages.

A :class:`FlowStage` is one tool invocation of the SP&R pipeline.  It
declares, as class attributes, everything the caching layer needs to
reason about it without running it:

- ``knobs``: exactly which :class:`~repro.eda.flow.FlowOptions` fields
  the stage reads.  Two option points whose knob values agree on every
  stage of a prefix produce bit-identical artifacts for that prefix —
  the invariant behind prefix cache keys.
- ``reads``: exactly which :class:`PipelineState` fields the stage
  reads besides ``result``.  A snapshot taken after a stage keeps only
  ``result`` and the fields some later stage reads; everything else is
  dead once the stage has run.
- ``n_seeds``: how many step seeds the stage consumes from the flow's
  seed stream (the runner pre-draws them in the monolith's historical
  order, so staging never perturbs the rng stream).
- ``cacheable``: whether the state *after* this stage is worth
  snapshotting (the terminal stage produces only the final result, so
  caching it would duplicate the whole-run :class:`ResultCache`).

Stages communicate only through :class:`PipelineState` fields — the
explicit intermediate artifacts (netlist, floorplan, placement, clock
tree, congestion map, ...) that per-stage tools like iEDA exchange as
files.  ``state.result`` accumulates the step logs and QoR fields
exactly as the monolithic flow did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.eda.cts import ClockTreeResult
from repro.eda.flow import FlowOptions, FlowResult
from repro.eda.floorplan import Floorplan
from repro.eda.netlist import Netlist
from repro.eda.opt import OptResult
from repro.eda.placement import Placement
from repro.eda.routing import DetailedRouteResult, GlobalRouteResult
from repro.eda.sta import StaStats, TimingGraph, TimingTopology
from repro.eda.synthesis import DesignSpec


@dataclass
class PipelineState:
    """Every artifact a stage may consume or produce.

    Fields are filled in pipeline order; a stage may rely on the
    artifacts of every earlier stage that it declares in ``reads``.
    Note the aliasing contract: ``placement.netlist`` *is* ``netlist``
    (the optimizer resizes cells in place and signoff sees the resized
    design through either reference), and ``timing_topology`` and
    ``timing_graph`` point at both, so a snapshot must copy the fields
    it keeps through one shared memo — the stage cache pickles the
    snapshot in one ``pickle.dumps``, which preserves this.  A snapshot
    holds ``result`` plus the fields later stages read (see
    :func:`~repro.eda.stages.runner.execute_pipeline`); every other
    field of a resumed state is None.
    """

    result: FlowResult
    spec: Optional[DesignSpec] = None  # set for full-flow (synthesis) entries
    netlist: Optional[Netlist] = None
    floorplan: Optional[Floorplan] = None
    placement: Optional[Placement] = None
    clock_tree: Optional[ClockTreeResult] = None
    groute: Optional[GlobalRouteResult] = None
    congestion: Optional[np.ndarray] = None
    opt: Optional[OptResult] = None
    droute: Optional[DetailedRouteResult] = None
    #: corner-independent STA structure (levels, net lengths), built at
    #: CTS and shared by every downstream timing query.  Pickling a
    #: snapshot in one dump preserves its aliasing onto
    #: ``netlist``/``placement``.
    timing_topology: Optional[TimingTopology] = None
    #: the optimizer's live incremental kernel (graph engine view)
    timing_graph: Optional[TimingGraph] = None
    #: timing-work accounting for *this* run's stage suffix; the runner
    #: copies it into the StageReport.  No stage reads it as an
    #: artifact, so no snapshot carries it: a resumed job starts at None
    sta_stats: Optional[StaStats] = None
    #: detailed-router iterations this run answered from a cached
    #: trajectory instead of running them (accounting, like
    #: ``sta_stats``: the runner copies it into the StageReport)
    droute_resumed: Optional[int] = None


class FlowStage:
    """One stage of the SP&R pipeline (see module docstring)."""

    name: str = ""
    #: the FlowOptions fields this stage reads, in canonical key order
    knobs: Tuple[str, ...] = ()
    #: the PipelineState fields this stage reads besides ``result``
    reads: Tuple[str, ...] = ()
    #: step seeds consumed from the flow's seed stream
    n_seeds: int = 0
    #: snapshot the post-stage state into the stage cache?
    cacheable: bool = True

    def knob_values(self, options: FlowOptions) -> Dict[str, object]:
        """The stage's slice of the option point (for prefix keys)."""
        return {knob: getattr(options, knob) for knob in self.knobs}

    def run(
        self,
        state: PipelineState,
        options: FlowOptions,
        seeds: Sequence[int],
        stop_callback=None,
        cache=None,
    ) -> None:
        """Execute the stage, mutating ``state`` (artifacts + logs).

        ``stop_callback`` is the job's kill hook and ``cache`` its
        :class:`~repro.eda.stages.cache.StageCache` (None without one);
        only detailed routing reads them, to stop early and to keep its
        router trajectories.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} knobs={self.knobs}>"
