"""Content-keyed result caching for flow runs.

A flow run is a pure function of ``(design, options, seed)`` — the
substrate injects no hidden state — so its :class:`FlowResult` can be
cached under a content key and replayed for free.  The cache has two
tiers:

- an in-memory LRU tier (:class:`ResultCache` with ``max_entries``),
  which makes repeated campaign points free within one process, and
- an optional on-disk JSON tier (``cache_dir``), which survives across
  processes and lets a re-run campaign report ~100% hits.

Keys are SHA-256 hex digests over (design fingerprint, canonical
options dict, seed).  Any change to the design content, any option
knob, or the seed produces a different key; renaming a design *does*
change its key (the design name is part of the reported result, so two
names must not share one cached ``FlowResult``).

Disk entries carry a ``schema`` version (:data:`CACHE_SCHEMA`).  An
entry whose version is missing or mismatched — e.g. written before the
staged-pipeline refactor, or by a newer layout — is treated as a miss
instead of deserializing a stale layout into current dataclasses.

Whole-run caching is complemented by the *stage-prefix* tier
(:class:`~repro.eda.stages.cache.StageCache`, re-exported here): keys
over the knob subsets and step seeds of a pipeline prefix, letting a
job that differs only in downstream knobs resume from its deepest
cached stage snapshot.  See ``docs/parallel.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Dict, Optional, Union

from repro.eda.flow import FlowOptions, FlowResult, load_step_log
from repro.eda.netlist import Netlist
from repro.eda.synthesis import DesignSpec

#: disk-entry layout version.  Bump whenever the serialized FlowResult
#: layout changes; readers treat any other version as a miss.  Version
#: history: 1 = unversioned pre-staged-pipeline entries (implicitly),
#: 2 = versioned entries introduced with the staged pipeline.
CACHE_SCHEMA = 2


def design_fingerprint(design: Union[DesignSpec, Netlist]) -> str:
    """A stable content hash of the job's design input.

    ``DesignSpec`` hashes its full field dict (a spec plus a seed fully
    determines the synthesized netlist); the dict holds the fields
    themselves, not ``asdict``'s deep copies, and serializes to the
    same JSON.  ``Netlist`` hashes its structural Verilog serialization,
    so two netlists with identical structure share cache entries
    regardless of how they were built.
    """
    if isinstance(design, DesignSpec):
        values = {f.name: getattr(design, f.name) for f in dataclasses.fields(design)}
        payload = json.dumps(values, sort_keys=True, default=float)
        return "spec:" + hashlib.sha256(payload.encode()).hexdigest()
    if isinstance(design, Netlist):
        from repro.eda.io import write_verilog

        return "netlist:" + hashlib.sha256(write_verilog(design).encode()).hexdigest()
    raise TypeError(f"cannot fingerprint design of type {type(design).__name__}")


def cache_key(design: Union[DesignSpec, Netlist], options: FlowOptions, seed: int) -> str:
    """The content key one flow job caches under."""
    payload = json.dumps(
        {
            "design": design_fingerprint(design),
            "options": options.to_dict(),
            "seed": int(seed),
        },
        sort_keys=True,
        default=float,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------- (de)serialization


def flow_result_to_dict(result: FlowResult) -> Dict:
    """JSON-safe dict of a :class:`FlowResult` (for the disk tier)."""
    out = dataclasses.asdict(result)
    out["options"] = result.options.to_dict()
    # asdict leaves numpy scalars in metric dicts; normalize to floats
    for log in out["logs"]:
        log["metrics"] = {k: float(v) for k, v in log["metrics"].items()}
        log["series"] = {k: [float(v) for v in vs] for k, vs in log["series"].items()}
        log["runtime_proxy"] = float(log["runtime_proxy"])
    return out


def flow_result_from_dict(data: Dict) -> FlowResult:
    data = dict(data)
    data["options"] = FlowOptions(**data["options"])
    data["logs"] = [load_step_log(**log) for log in data["logs"]]
    return FlowResult(**data)


# ----------------------------------------------------------------------- the cache


class ResultCache:
    """LRU in-memory tier plus optional on-disk JSON tier.

    ``get`` promotes disk hits into memory; ``put`` writes both tiers.
    Disk writes are atomic (write-to-temp + rename) so a killed worker
    never leaves a truncated JSON behind.
    """

    def __init__(self, max_entries: int = 1024, cache_dir: Optional[str] = None):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.cache_dir = cache_dir
        self._memory: "OrderedDict[str, FlowResult]" = OrderedDict()
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def _disk_path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> Optional[FlowResult]:
        """The cached result, or None.  Sets ``self.last_tier`` to
        ``"memory"``/``"disk"`` on a hit (for executor stats)."""
        self.last_tier = None
        if key in self._memory:
            self._memory.move_to_end(key)
            self.last_tier = "memory"
            return self._memory[key]
        if self.cache_dir is None:
            return None
        try:
            # one open, no exists() first: an entry that is missing,
            # unreadable or removed by a concurrent clear is a miss
            with open(self._disk_path(key)) as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or \
                    data.pop("schema", None) != CACHE_SCHEMA:
                return None  # corrupt, stale or future layout: a miss
            result = flow_result_from_dict(data)
        except (OSError, AttributeError, ValueError, KeyError, TypeError):
            return None  # unreadable or corrupt entry: treat as a miss
        self._insert_memory(key, result)
        self.last_tier = "disk"
        return result

    def put(self, key: str, result: FlowResult) -> None:
        self._insert_memory(key, result)
        if self.cache_dir is not None:
            path = self._disk_path(key)
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                # fdopen's context closes fd even when json.dump raises,
                # so an unserializable result leaks neither the
                # descriptor nor (see finally) the temp file
                with os.fdopen(fd, "w") as fh:
                    json.dump(dict(flow_result_to_dict(result),
                                   schema=CACHE_SCHEMA), fh)
                os.replace(tmp, path)
            except (OSError, TypeError, ValueError):
                pass  # a failed disk write must not fail the campaign
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def _insert_memory(self, key: str, result: FlowResult) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier; with ``disk=True`` also the disk tier
        (including stale ``.tmp`` files left by killed writers).  Only
        regular files are entries: a directory under an entry's name
        stays, and an entry already removed (say, by a concurrent
        clear) counts as gone."""
        self._memory.clear()
        if disk and self.cache_dir is not None:
            for name in sorted(os.listdir(self.cache_dir)):
                path = os.path.join(self.cache_dir, name)
                if name.endswith((".json", ".tmp")) and os.path.isfile(path):
                    try:
                        os.unlink(path)
                    except FileNotFoundError:
                        pass


# the stage-prefix cache tier lives with the stage definitions (its keys
# are derived from per-stage knob subsets); re-exported here so
# repro.core.parallel is the one-stop caching namespace
from repro.eda.stages.cache import (  # noqa: E402  (re-export)
    StageCache,
    configure_stage_cache,
    get_stage_cache,
    stage_prefix_keys,
)

__all__ = [
    "CACHE_SCHEMA",
    "ResultCache",
    "StageCache",
    "cache_key",
    "configure_stage_cache",
    "design_fingerprint",
    "flow_result_from_dict",
    "flow_result_to_dict",
    "get_stage_cache",
    "stage_prefix_keys",
]
