"""Finding and severity types for the determinism lint framework.

A :class:`Finding` is one (file, line, rule, message) observation.  The
whole framework traffics in these — rules produce them, the suppression
layer marks them, the reporters render them — so they sort and encode
deterministically (our own linter must be bit-reproducible, like
everything else in the repo).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Optional


class Severity(enum.IntEnum):
    """Ordered severity levels; comparisons use the numeric value."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @classmethod
    def parse(cls, name: str) -> "Severity":
        try:
            return cls[name.strip().upper()]
        except KeyError:
            valid = ", ".join(level.name.lower() for level in cls)
            raise ValueError(f"unknown severity {name!r} (expected {valid})")

    def __str__(self) -> str:
        return self.name.lower()

    def __format__(self, spec: str) -> str:  # f-strings use the name too
        return format(self.name.lower(), spec)


@dataclass(frozen=True)
class Finding:
    """One lint observation, anchored to a file position."""

    rule_id: str
    severity: Severity
    path: str  # repo-relative, '/'-separated
    line: int
    message: str
    col: int = 0
    suppressed: bool = False
    suppression_note: Optional[str] = None

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id, self.message)

    def suppress(self, note: str) -> "Finding":
        return replace(self, suppressed=True, suppression_note=note)

    def format(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.severity}: {self.message}{tag}")

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "rule": self.rule_id,
            "severity": str(self.severity),
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.suppressed:
            out["suppressed"] = True
            out["suppression_note"] = self.suppression_note
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Finding":
        """Inverse of :meth:`to_dict` (the incremental cache round-trip)."""
        return cls(
            rule_id=str(data["rule"]),
            severity=Severity.parse(str(data["severity"])),
            path=str(data["path"]),
            line=int(data["line"]),
            col=int(data.get("col", 0)),
            message=str(data["message"]),
            suppressed=bool(data.get("suppressed", False)),
            suppression_note=data.get("suppression_note"),
        )


#: pseudo rule ids emitted by the framework itself (not registry rules)
PARSE_ERROR_RULE = "E000"          # file failed to parse
SUPPRESSION_NO_JUSTIFICATION = "S001"  # allow[...] without `-- reason`
UNUSED_SUPPRESSION = "S002"        # allow[...] that matched nothing


@dataclass
class LintReport:
    """Everything one analyzer run produced."""

    findings: list = field(default_factory=list)       # active findings
    suppressed: list = field(default_factory=list)     # silenced findings
    n_files: int = 0
    rule_ids: tuple = ()
    #: project-graph and cache statistics (None until a driver sets them)
    project_stats: Optional[dict] = None

    def count_at_least(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity >= severity)

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.findings:
            return None
        return max(f.severity for f in self.findings)
