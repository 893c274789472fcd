"""R010: non-atomic writes to shared files (cross-file).

Worker processes, reruns and concurrent flows all touch the same
cache/stats/metrics files.  A plain ``open(path, "w")`` to one of those
paths tears under concurrency: a reader can observe a half-written
file, and two writers interleave.  Three idioms make a shared write
safe, and the executor's ``_persist_cache_stats`` demonstrates all of
them:

- **append-only**: mode ``"a"`` / ``os.O_APPEND`` — the kernel makes
  each small write atomic (the JSONL pattern);
- **flock**: an ``fcntl.flock`` taken in the same function serializes
  writers (advisory, but every writer in this repo takes it);
- **tmp-replace**: write a ``tempfile.mkstemp`` sibling then
  ``os.replace`` it over the target — readers see the old or the new
  file, never a mix.

The rule consumes :class:`~repro.analysis.project.WriteSite` summaries:
a write-mode open whose path expression *looks shared* (mentions
cache / stats / metrics / jsonl / persist / log) and that carries none
of the three protections is flagged.  Paths that are clearly private
(tempfiles, user-supplied output arguments with no shared-looking
name) are left alone — this rule polices the repo's shared mutable
files, not every file the code ever writes.
"""

from __future__ import annotations

import re

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule

#: tokens marking a path expression as shared mutable state (the
#: lookbehind keeps e.g. "verilog" from matching "log")
_SHARED_HINTS = re.compile(
    r"(?<![a-zA-Z])(cache|stats|metrics|jsonl|persist|log)", re.IGNORECASE
)
#: substrings marking the write as the private half of tmp-replace
_PRIVATE_HINTS = re.compile(r"tmp|temp|mkstemp|fd\b", re.IGNORECASE)


@register_rule
class SharedWriteAtomicityRule(Rule):
    rule_id = "R010"
    name = "non-atomic-shared-write"
    severity = Severity.ERROR
    description = (
        "writes to shared cache/stats/metrics files must be append-mode, "
        "flock-serialized, or tmp-write + os.replace"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            for qualname, fn in sorted(summary.functions.items()):
                for site in fn.writes:
                    if site.protections:
                        continue
                    if not _SHARED_HINTS.search(site.path_text):
                        continue
                    if _PRIVATE_HINTS.search(site.path_text):
                        continue
                    yield self.finding_at(
                        path, site.lineno,
                        f"write to shared path {site.path_text!r} is not "
                        f"atomic: use append mode, fcntl.flock, or write a "
                        f"tempfile and os.replace() it over the target",
                    )
