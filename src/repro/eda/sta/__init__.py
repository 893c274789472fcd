"""Static timing analysis as a queryable kernel.

The package splits STA into three layers:

- :mod:`repro.eda.sta.report` — plain-data query results
  (:class:`TimingReport`, :class:`EndpointTiming`, corners);
- :mod:`repro.eda.sta.policy` — the timers, one class per delay model
  (:class:`DelayPolicy` and its subclasses :class:`GraphSTA`,
  :class:`SignoffSTA`), each building and driving the kernel;
- :mod:`repro.eda.sta.graph` — the shared incremental kernel
  (:class:`TimingGraph`, :class:`TimingTopology`, :class:`StaStats`).

This package is the one import path for timing: every public name is
re-exported here (``from repro.eda.sta import GraphSTA``).
"""

from repro.eda.sta.graph import StaStats, TimingGraph, TimingTopology
from repro.eda.sta.policy import DelayPolicy, GraphSTA, SignoffSTA
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
    "GraphSTA",
    "PI_SLEW",
    "PO_LOAD",
    "SLOW",
    "SignoffSTA",
    "StaStats",
    "TYPICAL",
    "TimingGraph",
    "TimingTopology",
    "TimingReport",
]
