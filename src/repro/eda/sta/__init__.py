"""Static timing analysis as a queryable kernel.

The package splits STA into four layers:

- :mod:`repro.eda.sta.report` — plain-data query results
  (:class:`TimingReport`, :class:`EndpointTiming`, corners);
- :mod:`repro.eda.sta.policy` — pluggable delay models
  (:class:`GraphDelayPolicy`, :class:`SignoffDelayPolicy`);
- :mod:`repro.eda.sta.graph` — the shared incremental kernel
  (:class:`TimingGraph`, :class:`TimingTopology`, :class:`StaStats`);
- :mod:`repro.eda.sta.engines` — the historical engine front-ends
  (:class:`GraphSTA`, :class:`SignoffSTA`), now thin drivers.

This package is the one import path for timing: every public name is
re-exported here (``from repro.eda.sta import GraphSTA``).
"""

from repro.eda.sta.engines import GraphSTA, SignoffSTA, _BaseSTA
from repro.eda.sta.graph import StaStats, TimingGraph, TimingTopology
from repro.eda.sta.policy import DelayPolicy, GraphDelayPolicy, SignoffDelayPolicy
from repro.eda.sta.report import (
    FAST,
    PI_SLEW,
    PO_LOAD,
    SLOW,
    TYPICAL,
    Corner,
    EndpointTiming,
    TimingReport,
)

__all__ = [
    "Corner",
    "DelayPolicy",
    "EndpointTiming",
    "FAST",
    "GraphDelayPolicy",
    "GraphSTA",
    "PI_SLEW",
    "PO_LOAD",
    "SLOW",
    "SignoffDelayPolicy",
    "SignoffSTA",
    "StaStats",
    "TYPICAL",
    "TimingGraph",
    "TimingTopology",
    "TimingReport",
    "_BaseSTA",
]
