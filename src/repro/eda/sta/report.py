"""Timing-report artifacts shared by every timer.

These are the *query results* of the kernel: per-endpoint slacks plus
the structural path features the correlation models consume.  They are
deliberately plain data — the propagation machinery lives in
:mod:`repro.eda.sta.graph` and the delay models in
:mod:`repro.eda.sta.policy` — so a report can be snapshotted, pickled
and compared bitwise across engines and propagation modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default input slew at primary inputs (ps).
PI_SLEW = 20.0
#: Extra load (fF) a primary output must drive.
PO_LOAD = 2.0


@dataclass(frozen=True)
class Corner:
    """A PVT corner: multiplicative factors on delay and wire RC."""

    name: str
    delay_factor: float = 1.0
    wire_factor: float = 1.0

    def __post_init__(self):
        if self.delay_factor <= 0 or self.wire_factor <= 0:
            raise ValueError("corner factors must be positive")


TYPICAL = Corner("tt", 1.0, 1.0)
SLOW = Corner("ss", 1.18, 1.10)
FAST = Corner("ff", 0.85, 0.94)


@dataclass
class EndpointTiming:
    """Timing and structural features at one endpoint.

    Endpoints are DFF D pins (``kind='setup'``) or primary outputs
    (``kind='output'``).  ``features`` feeds the correlation models.
    """

    endpoint: str
    kind: str
    arrival: float
    required: float
    slack: float
    path_depth: int
    path_wire_delay: float
    path_cell_delay: float
    path_max_fanout: int
    path_slew: float
    hold_slack: float = float("inf")  # populated when check_hold=True

    @property
    def features(self) -> List[float]:
        return [
            self.arrival,
            float(self.path_depth),
            self.path_wire_delay,
            self.path_cell_delay,
            float(self.path_max_fanout),
            self.path_slew,
        ]

    FEATURE_NAMES = (
        "arrival",
        "path_depth",
        "path_wire_delay",
        "path_cell_delay",
        "path_max_fanout",
        "path_slew",
    )


@dataclass
class TimingReport:
    """Result of one STA query (a full run or an incremental re-query)."""

    engine: str
    corner: str
    clock_period: float
    endpoints: Dict[str, EndpointTiming] = field(default_factory=dict)
    paths: Dict[str, List[str]] = field(default_factory=dict)  # endpoint -> worst-path instances
    runtime_proxy: float = 0.0  # abstract work units ("cost" axis of Fig 8)

    @property
    def wns(self) -> float:
        """Worst negative slack (most negative endpoint slack; +inf if none)."""
        if not self.endpoints:
            return float("inf")
        return min(e.slack for e in self.endpoints.values())

    @property
    def tns(self) -> float:
        """Total negative slack (sum of negative endpoint slacks)."""
        return sum(min(0.0, e.slack) for e in self.endpoints.values())

    @property
    def n_violations(self) -> int:
        return sum(1 for e in self.endpoints.values() if e.slack < 0)

    @property
    def hold_wns(self) -> float:
        """Worst hold slack over setup endpoints (+inf when not checked)."""
        holds = [e.hold_slack for e in self.endpoints.values() if e.kind == "setup"]
        return min(holds) if holds else float("inf")

    @property
    def n_hold_violations(self) -> int:
        return sum(
            1
            for e in self.endpoints.values()
            if e.kind == "setup" and e.hold_slack < 0
        )

    def slack_of(self, endpoint: str) -> float:
        """Setup slack of one endpoint, by name (e.g. ``"ff3/D"``)."""
        try:
            return self.endpoints[endpoint].slack
        except KeyError:
            raise KeyError(
                f"endpoint {endpoint!r} is not in this {self.engine!r} report "
                f"at corner {self.corner!r} ({len(self.endpoints)} endpoints; "
                f"flop endpoints are named '<inst>/D', primary outputs "
                f"'<net>/PO')"
            ) from None

    def worst_endpoint(self) -> Optional[EndpointTiming]:
        """The endpoint with the minimum setup slack, or None if empty.

        Ties break deterministically toward the earlier endpoint in
        report order (flop endpoints in netlist order, then primary
        outputs), so ``worst_endpoint().slack`` is always the same
        float ``wns`` reports — consumers should call this instead of
        re-sorting the endpoint dict ad hoc.
        """
        worst: Optional[EndpointTiming] = None
        for ep in self.endpoints.values():
            if worst is None or ep.slack < worst.slack:
                worst = ep
        return worst
