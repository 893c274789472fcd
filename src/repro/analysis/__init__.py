"""Determinism & parallel-safety static analysis (``repro lint``).

The substrate's contract is that every result is a pure function of
(design, options, seed) and every campaign is bit-reproducible across
the :class:`~repro.core.parallel.FlowExecutor` process pool.  This
package encodes those invariants as an AST-based rule pack — unseeded
global RNGs, unguarded module state, nondeterministic iteration,
wall-clock reads, unpicklable pool payloads, METRICS vocabulary drift,
swallowed exceptions, undocumented CLI flags, inconsistent lock
discipline, non-atomic shared writes, RNG state crossing the pool —
and runs them over the tree in CI (``make lint`` /
``repro lint --strict src/repro examples``).

Every run is whole-program: :mod:`repro.analysis.project` boils each
file down to a summary, the one fact base, builds the import/call
graph from the summaries, and feeds it to every rule but R003 and
R007, which walk each file's AST.  A content-hash incremental cache
lets warm runs replay unchanged files instead of re-parsing them.

Suppress a finding inline with a justified allow-comment::

    _CACHE = {}  # repro: allow[R002] -- guarded by _LOCK below

See ``docs/static-analysis.md`` for the rule catalog and how to add a
rule.
"""

from repro.analysis.engine import (
    LintConfig,
    discover_files,
    find_project_root,
    lint_modules,
    lint_paths,
)
from repro.analysis.findings import Finding, LintReport, Severity
from repro.analysis.project import (
    LintCache,
    ModuleSummary,
    ProjectContext,
    build_context,
    summarize_module,
)
from repro.analysis.registry import (
    ModuleInfo,
    Rule,
    all_rules,
    get_rule,
    register_rule,
)
from repro.analysis.reporting import format_human, format_json, to_dict
from repro.analysis.suppressions import Suppression, find_suppressions

__all__ = [
    "Finding",
    "LintCache",
    "LintConfig",
    "LintReport",
    "ModuleInfo",
    "ModuleSummary",
    "ProjectContext",
    "Rule",
    "Severity",
    "Suppression",
    "all_rules",
    "build_context",
    "discover_files",
    "find_project_root",
    "find_suppressions",
    "format_human",
    "format_json",
    "get_rule",
    "lint_modules",
    "lint_paths",
    "register_rule",
    "summarize_module",
    "to_dict",
]
