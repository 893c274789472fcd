"""R002: module-level mutable state mutated without a lock.

A module-level dict/list/set is shared by every thread in the process
(the metrics drain thread, campaign threads) and *duplicated* into
every pool worker — mutations are both race-prone and silently
non-shared across the ``FlowExecutor`` process boundary.  Read-only
module constants are fine; the rule fires only when the object is
actually mutated somewhere in the module (an item write or delete, or
a mutator method such as ``append``/``update``) and the mutation site
is not inside a ``with <module-level threading.Lock>`` block.
Annotated containers (``_CACHE: Dict[str, int] = {}``) count too.

The rule reads the summaries' module containers, module locks and
mutation sites, so it shares their lexical scope model: a name a
function (or an enclosing function) binds locally shadows the module
object unless declared ``global``, and a ``def`` nested under ``with
_LOCK:`` holds the lock.

Legitimate caches keep the lock (see ``_CPU_MAP_CACHE`` in
``repro/bench/corpus.py``) or carry an inline allow with the rationale.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule


@register_rule
class MutableModuleStateRule(Rule):
    rule_id = "R002"
    name = "unguarded-module-state"
    severity = Severity.ERROR
    description = (
        "module-level mutable containers mutated outside a module "
        "threading.Lock are race-prone and not shared across pool workers"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            module = summary.module_name
            tracked = {f"{module}.{name}": name
                       for name in summary.mutable_globals
                       if not name.startswith("__")}  # __all__ and friends
            if not tracked:
                continue
            locks = {f"{module}.{name}" for name in summary.lock_globals}
            unguarded = set()  # `a[i] = a[j] = v` is one site per target
            for fn in summary.functions.values():
                for site in fn.mutations:
                    name = tracked.get(site.name)
                    # rebinding the name is not mutating the container
                    if name is None or site.via in ("rebind", "del") or \
                            locks.intersection(site.locks):
                        continue
                    unguarded.add((site.lineno, site.col, name))
            for line, col, name in sorted(unguarded):
                yield self.finding_at(
                    path, line,
                    f"module-level mutable '{name}' mutated without holding "
                    f"a module threading.Lock; guard it or inject the state",
                    col=col,
                )
