"""R009: inconsistent lock discipline on shared state (cross-file).

A module global or instance attribute that is mutated under a lock at
one site must be mutated under a lock at *every* site — a single
unguarded writer races every guarded one, and the bug only shows up as
a rare nondeterministic corruption (the exact failure mode this repo's
determinism charter exists to prevent).

The rule is interprocedural through the summaries in
:class:`~repro.analysis.project.ProjectContext`:

- the lock held at a site is its lexical ``with`` stack *plus* the
  ``inherited_locks`` fixpoint (a private helper whose every in-project
  call site holds a lock is analyzed as holding it too — the
  ``receive -> _append`` shape);
- sites inside ``__init__`` or the ``init_only`` fixpoint (helpers
  reachable solely from ``__init__``) are exempt — the object is not
  published yet, so pre-publication mutation cannot race;
- module-level statements are exempt (imports are serialized by the
  import lock and run once).

Only a *mixed* group fires: state never locked anywhere is single-owner
by convention (and R002 already polices module-global mutation); state
locked everywhere is correct.  The finding lands on each unguarded
site and names a guarded site to compare against.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule


@register_rule
class LockDisciplineRule(Rule):
    rule_id = "R009"
    name = "inconsistent-lock-discipline"
    severity = Severity.ERROR
    description = (
        "shared state guarded by a lock at one mutation site must be "
        "guarded at every mutation site (interprocedural)"
    )

    def check_context(self, context):
        # group key -> [(path, line, locks_held, display_name)]
        groups: Dict[Tuple[str, ...], List[Tuple[str, int, frozenset, str]]] \
            = {}
        for path, summary in context.summaries.items():
            for qualname, fn in summary.functions.items():
                if qualname == "<module>":
                    continue  # import-time is serialized and runs once
                token = f"{summary.module_name}.{qualname}"
                if context.in_init_context(token):
                    continue  # pre-publication mutation cannot race
                for site in fn.mutations:
                    if site.scope == "global":
                        key = ("global", site.name)
                        display = site.name
                    else:
                        key = ("attr", summary.module_name, site.cls,
                               site.name)
                        display = f"{site.cls}.{site.name}"
                    for at_path, line, held in self._attributed_sites(
                            context, token, path, site):
                        groups.setdefault(key, []).append(
                            (at_path, line, held, display))

        for key in sorted(groups):
            sites = sorted(groups[key], key=lambda s: (s[0], s[1]))
            guarded = [s for s in sites if s[2]]
            unguarded = [s for s in sites if not s[2]]
            if not guarded or not unguarded:
                continue  # consistent discipline (all or nothing)
            ref_path, ref_line, ref_locks, display = guarded[0]
            lock = sorted(ref_locks)[0]
            for path, line, _held, name in unguarded:
                yield self.finding_at(
                    path, line,
                    f"'{name}' is mutated under lock '{lock}' at "
                    f"{ref_path}:{ref_line} but mutated without a lock "
                    f"here; every mutation site must hold the lock",
                )

    @staticmethod
    def _attributed_sites(context, token, path, site):
        """Where a mutation 'happens' for discipline purposes.

        A private helper's mutation is attributed to its call sites
        (each with that caller's lock context) — ``receive`` calling
        ``_append`` under the lock while ``sneak`` calls it bare is a
        race *at the bare call site*, which is also where the fix goes.
        Non-private functions, and helpers nobody calls, keep the
        mutation at its own line.
        """
        leaf = token.rsplit(".", 1)[-1]
        call_sites = (context.callers.get(token, ())
                      if leaf.startswith("_") and not leaf.startswith("__")
                      else ())
        if not call_sites:
            yield path, site.lineno, context.effective_locks(
                token, site.locks)
            return
        for caller, lineno, locks in call_sites:
            if context.in_init_context(caller):
                continue  # pre-publication path
            caller_path = context.path_of(caller)
            if caller_path is None:
                continue
            held = context.effective_locks(caller, locks)
            # locks held lexically inside the helper itself still count
            held |= {t for t in site.locks if t in context.lock_tokens}
            yield caller_path, lineno, frozenset(held)
