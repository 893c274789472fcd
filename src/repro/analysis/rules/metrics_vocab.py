"""R006: METRICS vocabulary drift.

METRICS lesson (2): one name, one meaning.  Two drift modes break it:

- an emitter sends a name the schema does not define — the record is
  rejected at transmission time, i.e. a latent runtime crash;
- the schema defines a name nothing ever emits — dead vocabulary that
  readers (the miner, dashboards) wait on forever.

The rule works from the per-file summaries.  The vocabulary is the
``VOCABULARY`` dict of the *linted* project's ``metrics/schema.py``
when present (AST-extracted by the summarizer, so fixtures can carry
their own mini-schema), else the installed
:mod:`repro.metrics.schema`.  Emitters are literal first arguments to
``.send(...)`` / ``.record(...)`` / ``.emit(...)``; the no-emitter
check also accepts any string literal elsewhere in the project (the
flow wrappers route names through mapping dicts like
``_STEP_METRICS``), and is skipped entirely when no linted
``metrics/schema.py`` defines a ``VOCABULARY`` dict.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Optional, Set

from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleInfo, Rule, register_rule

_EMIT_METHODS = {"send", "record", "emit"}
# kept in sync with repro.metrics.schema._NAME_RE: one or more
# dot-separated segments after the first (stage events have three)
_NAME_RE = re.compile(r"^[a-z_]+(\.[a-z_]+)+$")


def _extract_vocabulary(schema: ModuleInfo) -> Optional[Dict[str, int]]:
    """``VOCABULARY`` keys -> schema line, from the module's AST."""
    for stmt in schema.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name) and \
                stmt.targets[0].id == "VOCABULARY" and \
                isinstance(stmt.value, ast.Dict):
            return {
                key.value: key.lineno
                for key in stmt.value.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            }
    return None


@register_rule
class MetricsVocabularyRule(Rule):
    rule_id = "R006"
    name = "metrics-vocabulary-drift"
    severity = Severity.ERROR
    description = (
        "emitted metric names must exist in the METRICS vocabulary, "
        "and every vocabulary entry needs an emitter"
    )

    def check_context(self, context):
        schema_path = None
        for path in context.summaries:
            if path.endswith("metrics/schema.py"):
                schema_path = path
                break
        vocabulary = (context.summaries[schema_path].vocabulary
                      if schema_path is not None else None)
        if vocabulary is None:
            schema_path = None  # file present but no VOCABULARY dict
            try:
                from repro.metrics.schema import VOCABULARY
            except ImportError:  # pragma: no cover - repro is importable here
                return
            vocabulary = {name: 0 for name in VOCABULARY}

        emitted: Set[str] = set()
        referenced: Set[str] = set()
        for path, summary in context.summaries.items():
            if path == schema_path:
                continue
            referenced.update(summary.metric_literals)
            for line, name in summary.emit_sites:
                emitted.add(name)
                if name not in vocabulary:
                    yield self.finding_at(
                        path, line,
                        f"metric '{name}' is not in the METRICS vocabulary "
                        f"(repro.metrics.schema.VOCABULARY); records with it "
                        f"are rejected at transmission time",
                    )
        if schema_path is not None:
            for name in sorted(vocabulary):
                if name not in emitted and name not in referenced:
                    yield self.finding_at(
                        schema_path, vocabulary[name],
                        f"vocabulary entry '{name}' has no emitter anywhere "
                        f"in the linted tree; remove it or emit it",
                        severity=Severity.WARNING,
                    )
