"""Prefix-keyed stage caching: pay only for the changed suffix.

The whole-run :class:`~repro.core.parallel.ResultCache` hits only on
*exact* ``(design, options, seed)`` repeats.  Campaign moves, though,
mostly perturb downstream knobs — so the synth/floorplan/place prefix
is recomputed identically thousands of times.  A *stage prefix key*
hashes everything that can influence the pipeline state up to and
including one stage:

- the design fingerprint and entry kind (full flow vs. implement-only),
- for every stage of the prefix, in order: its name, its declared knob
  subset's values, and its derived step seeds.

Knobs a stage does not declare cannot change its output, so two jobs
that agree on a prefix's knob slices and seeds share that prefix's
state bit-for-bit — the cached :class:`PipelineState` snapshot can be
resumed from directly.  The runner hands ``put`` a snapshot holding
``result`` and only the fields some later stage ``reads``; after
signoff that is the congestion map alone, so the snapshot a router-knob
sweep resumes from is a few kilobytes.  The same LRU holds the detailed
router's trajectories, under content keys of what the router reads
(:func:`~repro.eda.stages.droute.trajectory_key`): a router run resumes
the longest one an earlier job left and draws only past its end.  A
trajectory holds its generator's state as a plain dict, not a live
generator, so getting one decodes a grid, a list and a dict.

Snapshots are stored as pickled bytes, taken once in ``put``, and
every ``get`` unpickles a private copy, because later stages mutate
artifacts in place (the optimizer resizes netlist cells, the refiner
moves placements).  One pickle of the snapshot shares one memo, so the
``placement.netlist is netlist`` aliasing signoff relies on — and the
timing topology's and graph's aliasing onto both — survives the round
trip, and every float and ndarray comes back bit-exact.  A snapshot
costs its bytes, not a Python-level walk over every netlist object.
The bytes never leave the process (no disk, no IPC): the cache only
unpickles what its own ``put`` wrote.

A serial stage-caching executor owns one instance and hands it to
each job it runs.  Pool workers receive jobs as picklable tuples, so
each worker process holds one process-global instance instead
(:func:`configure_stage_cache` / :func:`get_stage_cache`, read by
:func:`~repro.core.parallel.executor.run_flow_job` when the job carries
``stage_cache=True``) and shares hits across the jobs it executes
without any cross-process traffic.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Union

from repro.eda.flow import FlowOptions
from repro.eda.netlist import Netlist
from repro.eda.synthesis import DesignSpec


def stage_prefix_keys(
    design: Union[DesignSpec, Netlist], options: FlowOptions, seed: int,
    plan=None,
) -> List[str]:
    """One key per pipeline stage, each covering the prefix ending there.

    The keys form a hash chain: the first link hashes the design
    fingerprint and the entry kind, and each stage's key hashes the key
    before it with the stage's slice (name, knob values, step seeds), so
    every slice is serialized once.  ``plan`` is
    ``plan_stages(design, seed)`` when the caller already holds it.
    Keys never leave the process, so the slice is its ``repr`` (exact
    for floats), not canonical JSON.
    """
    # lazy imports: core.parallel.cache imports repro.eda.flow, and the
    # runner imports this module — both would cycle at import time
    from repro.core.parallel.cache import design_fingerprint
    from repro.eda.stages.runner import plan_stages

    kind, stages, stage_seeds = plan if plan is not None else plan_stages(design, seed)
    link = hashlib.sha256(f"{design_fingerprint(design)}|{kind}".encode()).hexdigest()
    keys: List[str] = []
    for stage, seeds in zip(stages, stage_seeds):
        piece = repr((stage.name, stage.knob_values(options), [int(s) for s in seeds]))
        link = hashlib.sha256(f"{link}|{piece}".encode()).hexdigest()
        keys.append(link)
    return keys


class StageCache:
    """In-memory LRU of :class:`PipelineState` snapshots by prefix key,
    and of router trajectories by trajectory key.

    Thread-safe (one lock around the LRU and the counters); entries are
    pickled once on ``put`` and unpickled afresh on every ``get``
    (outside the lock), so callers can never mutate a cached entry
    and no two callers share an object.  ``hits``/``misses`` count
    probes per stage name (trajectory probes under the router stage's)
    — the campaign-level saved-work accounting instead travels with
    each job in its :class:`~repro.eda.stages.runner.StageReport`.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        #: prefix key -> pickled PipelineState; trajectory key ->
        #: pickled RouteTrajectory
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits: Dict[str, int] = {}
        self.misses: Dict[str, int] = {}
        self.puts: int = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str, stage_name: str) -> Optional[object]:
        with self._lock:
            blob = self._entries.get(key)
            if blob is None:
                self.misses[stage_name] = self.misses.get(stage_name, 0) + 1
                return None
            self._entries.move_to_end(key)
            self.hits[stage_name] = self.hits.get(stage_name, 0) + 1
        return pickle.loads(blob)

    def put(self, key: str, stage_name: str, entry: object) -> None:
        snapshot = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._entries[key] = snapshot
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self.puts += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits.clear()
            self.misses.clear()
            self.puts = 0


_STAGE_CACHE: Optional[StageCache] = None
_STAGE_CACHE_LOCK = threading.Lock()


def configure_stage_cache(max_entries: int = 64) -> StageCache:
    """(Re)create the process-global stage cache.

    Called in each pool worker's initializer.  Reconfiguring drops
    prior entries — harmless for correctness (entries are only ever
    reused, never required) and it keeps hit accounting per campaign.
    """
    global _STAGE_CACHE
    with _STAGE_CACHE_LOCK:
        _STAGE_CACHE = StageCache(max_entries=max_entries)
        return _STAGE_CACHE


def get_stage_cache() -> Optional[StageCache]:
    """The process-global stage cache, or None when never configured."""
    return _STAGE_CACHE
