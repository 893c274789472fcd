"""Rule API and registry for the determinism lint framework.

A rule is a class with a unique ``R\\d{3}`` id, a default severity and
two hooks: :meth:`Rule.check_context` (called once per run with the
whole-program :class:`~repro.analysis.project.ProjectContext`, whose
per-file summaries are the fact base most rules read) and
:meth:`Rule.check_module` (called once per parsed file, for a rule
whose facts no summary records).  Registering is one decorator::

    @register_rule
    class MyRule(Rule):
        rule_id = "R042"
        name = "my-invariant"
        severity = Severity.WARNING
        description = "what the rule enforces and why"

        def check_context(self, context):
            yield self.finding_at(path, site.lineno, "message", col=site.col)

See ``docs/static-analysis.md`` for the full recipe.
"""

from __future__ import annotations

import ast
import re
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Type

from repro.analysis.findings import Finding, Severity

_RULE_ID_RE = re.compile(r"^R\d{3}$")


@dataclass
class ModuleInfo:
    """One parsed source file, as handed to rules."""

    path: str          # repo-relative, '/'-separated
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    def __post_init__(self):
        if not self.lines:
            self.lines = self.source.splitlines()


class Rule:
    """Base class: one enforced invariant, one id, one severity."""

    rule_id: str = ""
    name: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_context(self, context) -> Iterable[Finding]:
        """Whole-program hook.

        ``context`` is a :class:`repro.analysis.project.ProjectContext`
        built from per-file summaries (import graph, symbol table, call
        graph, lock-context fixpoints).  Rules implementing this hook
        see the whole program even on warm incremental runs, where
        unchanged files are never re-parsed — so they must work from
        summaries, never ASTs.
        """
        return ()

    def finding(self, module: ModuleInfo, line: int, message: str,
                col: int = 0, severity: Optional[Severity] = None) -> Finding:
        return self.finding_at(module.path, line, message, col, severity)

    def finding_at(self, path: str, line: int, message: str, col: int = 0,
                   severity: Optional[Severity] = None) -> Finding:
        """Like :meth:`finding`, for hooks that see summaries, not ASTs."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity if severity is None else severity,
            path=path,
            line=line,
            col=col,
            message=message,
        )


_LOCK = threading.Lock()
_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: add a :class:`Rule` subclass to the registry."""
    if not _RULE_ID_RE.match(cls.rule_id or ""):
        raise ValueError(f"rule id {cls.rule_id!r} does not match R###")
    if not cls.name or not cls.description:
        raise ValueError(f"rule {cls.rule_id} needs a name and description")
    with _LOCK:
        existing = _REGISTRY.get(cls.rule_id)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"rule id {cls.rule_id} already registered by "
                f"{existing.__name__}"
            )
        _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, instantiated, in id order."""
    _load_builtin_rules()
    with _LOCK:
        return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    _load_builtin_rules()
    with _LOCK:
        if rule_id not in _REGISTRY:
            raise KeyError(f"no rule registered under {rule_id!r}")
        return _REGISTRY[rule_id]()


def _load_builtin_rules() -> None:
    """Import the builtin rule pack (idempotent; registers on import)."""
    import repro.analysis.rules  # noqa: F401  (import side effect)
