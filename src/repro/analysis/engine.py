"""The analyzer: files -> per-file analyses -> project context -> report.

Drives the whole pass: gathers ``.py`` files deterministically, runs
every enabled rule's module hook and the summarizer on each parsed file
(or replays both from the content-hash cache), builds the
whole-program :class:`~repro.analysis.project.ProjectContext`, runs the
context hooks over it, applies inline suppressions, and returns a
:class:`~repro.analysis.findings.LintReport` sorted by
(path, line, rule).  ``repro lint`` and ``make lint`` are thin wrappers
around :func:`lint_paths`; :func:`lint_modules` runs the same pipeline
over in-memory modules.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.findings import LintReport, Severity
from repro.analysis.project import (
    FileAnalysis,
    LintCache,
    build_context,
    content_hash,
    pack_signature,
    summarize_module,
)
from repro.analysis.registry import ModuleInfo, Rule, all_rules
from repro.analysis.suppressions import apply_suppressions, find_suppressions

_SKIP_DIRS = {"__pycache__", ".git", ".pytest_cache", "build", "dist"}


@dataclass
class LintConfig:
    """What to run and what counts as failure."""

    select: Optional[Sequence[str]] = None   # rule ids to run (None = all)
    ignore: Sequence[str] = ()               # rule ids to skip
    fail_on: Severity = Severity.ERROR      # exit nonzero at/above this
    strict: bool = False                     # fail on ANY active finding
    project_root: Optional[str] = None       # repo root (docs/, README.md)
    use_cache: bool = True                   # incremental per-file cache
    cache_path: Optional[str] = None         # default: <root>/.repro-lint-cache.json

    def enabled_rules(self) -> List[Rule]:
        rules = all_rules()
        if self.select is not None:
            wanted = set(self.select)
            unknown = wanted - {rule.rule_id for rule in rules}
            if unknown:
                raise ValueError(f"unknown rule id(s): {sorted(unknown)}")
            rules = [rule for rule in rules if rule.rule_id in wanted]
        return [rule for rule in rules if rule.rule_id not in set(self.ignore)]

    def fails(self, report: LintReport) -> bool:
        if self.strict:
            return bool(report.findings)
        return report.count_at_least(self.fail_on) > 0


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, duplicate-free file list."""
    out: List[str] = []
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            candidates = [path]
        elif os.path.isdir(path):
            candidates = []
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in _SKIP_DIRS and not d.startswith(".")
                )
                candidates.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames) if name.endswith(".py")
                )
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for cand in candidates:
            resolved = os.path.abspath(cand)
            if resolved not in seen:
                seen.add(resolved)
                out.append(cand)
    return sorted(out, key=lambda p: _rel_path(p, None))


def find_project_root(start: str) -> str:
    """Walk up from ``start`` to the repo root (pyproject.toml / .git)."""
    here = os.path.abspath(start if os.path.isdir(start)
                           else os.path.dirname(start) or ".")
    while True:
        if any(os.path.exists(os.path.join(here, marker))
               for marker in ("pyproject.toml", "setup.py", ".git")):
            return here
        parent = os.path.dirname(here)
        if parent == here:
            return os.path.abspath(start)
        here = parent


def _rel_path(path: str, root: Optional[str]) -> str:
    if root:
        try:
            rel = os.path.relpath(os.path.abspath(path), root)
            if not rel.startswith(".."):
                return rel.replace(os.sep, "/")
        except ValueError:  # different drive on win32
            pass
    return path.replace(os.sep, "/")


def lint_paths(paths: Sequence[str],
               config: Optional[LintConfig] = None) -> LintReport:
    """Lint files and directories: the ``repro lint`` entry point.

    A file whose content hash is unchanged since the last run replays
    its per-file analysis from the cache (``config.use_cache``); every
    other file is parsed and analyzed afresh.  The summary-fed rules
    always see the whole program, so warm and cold reports are
    identical.
    """
    config = config or LintConfig()
    rules = config.enabled_rules()
    files = discover_files(paths)
    root = config.project_root or (
        find_project_root(paths[0]) if paths else os.getcwd()
    )
    cache_path = None
    if config.use_cache:
        cache_path = config.cache_path or os.path.join(
            root, ".repro-lint-cache.json")
    cache = LintCache(cache_path,
                      pack_signature([rule.rule_id for rule in rules]))

    analyses: Dict[str, FileAnalysis] = {}
    for path in files:
        rel = _rel_path(path, root)
        with open(path, "rb") as fh:
            raw = fh.read()
        sha = content_hash(raw)
        analysis = cache.lookup(rel, sha)
        if analysis is None:
            analysis = _analyze_source(raw.decode("utf-8"), path, rel, rules)
            cache.store(rel, sha, analysis)
        analyses[rel] = analysis
    cache.prune(analyses)

    report = _lint(rules, root, analyses, cache)
    cache.save()
    report.n_files = len(files)
    return report


def lint_modules(modules: Sequence[ModuleInfo], root: str,
                 config: Optional[LintConfig] = None) -> LintReport:
    """Lint in-memory modules (the fixtures' entry point): the same
    pipeline as :func:`lint_paths`, without files or a cache."""
    config = config or LintConfig()
    rules = config.enabled_rules()
    analyses = {module.path: _analyze_module(module, rules)
                for module in modules}
    report = _lint(rules, root, analyses, cache=None)
    report.n_files = len(modules)
    return report


def _analyze_source(source: str, path: str, rel: str,
                    rules: Sequence[Rule]) -> FileAnalysis:
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return FileAnalysis.parse_error(
            rel, exc.lineno or 1, f"file does not parse: {exc.msg}")
    return _analyze_module(ModuleInfo(path=rel, source=source, tree=tree),
                           rules)


def _analyze_module(module: ModuleInfo,
                    rules: Sequence[Rule]) -> FileAnalysis:
    """Everything one file contributes, computed from its AST alone."""
    findings = [finding for rule in rules
                for finding in rule.check_module(module)]
    findings.sort(key=lambda f: f.sort_key)
    return FileAnalysis(
        summary=summarize_module(module),
        findings=findings,
        suppressions=find_suppressions(module.source, module.tree),
    )


def _lint(rules: Sequence[Rule], root: str,
          analyses: Mapping[str, FileAnalysis],
          cache: Optional[LintCache]) -> LintReport:
    """Context rules over the whole program, then per-file suppression.

    Module-rule and context-rule findings merge per file before the
    file's suppressions apply; parse errors are never suppressible.
    """
    parsed = {rel: analysis for rel, analysis in analyses.items()
              if analysis.summary is not None}
    context = build_context(
        root, {rel: analysis.summary for rel, analysis in parsed.items()},
        cache=cache)
    by_path = {rel: list(analysis.findings)
               for rel, analysis in parsed.items()}
    report = LintReport(rule_ids=tuple(rule.rule_id for rule in rules))
    for rule in rules:
        for finding in rule.check_context(context):
            if finding.path in by_path:
                by_path[finding.path].append(finding)
            else:
                report.findings.append(finding)  # outside the linted set

    for rel in sorted(by_path):
        merged = sorted(by_path[rel], key=lambda f: f.sort_key)
        active, silenced = apply_suppressions(
            merged, parsed[rel].suppressions, rel)
        report.findings.extend(active)
        report.suppressed.extend(silenced)
    for analysis in analyses.values():
        if analysis.summary is None:
            report.findings.extend(analysis.findings)
    report.findings.sort(key=lambda f: f.sort_key)
    report.suppressed.sort(key=lambda f: f.sort_key)
    report.project_stats = context.stats()
    return report
