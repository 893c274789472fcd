"""R008: CLI flags no document mentions.

Every ``add_argument("--flag", ...)`` in ``repro/cli.py`` is public
API; a flag that no file under ``docs/`` (or the README) mentions is
invisible to users and silently rots.  The rule cross-references the
flag strings in the CLI module against the text of ``README.md`` and
``docs/**/*.md`` in the project root — ``docs/cli.md`` is the canonical
place; mentioning the flag in any document satisfies the rule.
"""

from __future__ import annotations

import ast
import os
from typing import Dict

from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleInfo, Rule, register_rule


def _cli_flags(cli: ModuleInfo) -> Dict[str, int]:
    """flag string -> first definition line, from add_argument calls."""
    flags: Dict[str, int] = {}
    for node in ast.walk(cli.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "add_argument"):
            continue
        for arg in node.args:
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str) \
                    and arg.value.startswith("--"):
                flags.setdefault(arg.value, arg.lineno)
    return flags


def _docs_text(root: str) -> str:
    chunks = []
    readme = os.path.join(root, "README.md")
    if os.path.isfile(readme):
        with open(readme, encoding="utf-8") as fh:
            chunks.append(fh.read())
    docs_dir = os.path.join(root, "docs")
    if os.path.isdir(docs_dir):
        for dirpath, dirnames, filenames in os.walk(docs_dir):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".md"):
                    with open(os.path.join(dirpath, name),
                              encoding="utf-8") as fh:
                        chunks.append(fh.read())
    return "\n".join(chunks)


@register_rule
class UndocumentedCliFlagRule(Rule):
    rule_id = "R008"
    name = "undocumented-cli-flag"
    severity = Severity.WARNING
    description = (
        "every repro.cli flag must be mentioned in README.md or a doc "
        "under docs/ (docs/cli.md is the canonical reference)"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            if path.rsplit("/", 1)[-1] != "cli.py" or not summary.cli_flags:
                continue
            docs = _docs_text(context.root)
            for flag in sorted(summary.cli_flags):
                if flag not in docs:
                    yield self.finding_at(
                        path, summary.cli_flags[flag],
                        f"CLI flag '{flag}' is not mentioned in README.md or "
                        f"any doc under docs/; document it (docs/cli.md)",
                    )
