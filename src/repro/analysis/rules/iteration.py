"""R003: nondeterministic iteration orders feeding results.

``set`` iteration order varies with insertion history and hash
randomization; ``os.listdir``/``glob.glob`` order varies with the
filesystem.  Any such order that reaches a result list, a metrics
stream, or a report breaks bit-reproducibility between runs and between
machines.  Wrap the expression in ``sorted(...)`` (cheap at these
sizes) or iterate a deterministically-ordered container instead.

The rule is syntactic: it flags iteration (a ``for``, a comprehension,
or ``list``/``tuple``/``enumerate``/``join``) over expressions that are
*provably* unordered — set literals/constructors/comprehensions,
listdir/glob calls, and names the same scope binds only to such set
expressions (``inside = set(names)`` then ``for n in inside``) — when
they are not consumed by an order-insensitive reducer (``sorted``,
``min``, ``max``, ``sum``, ``len``, ``any``, ``all``, ``frozenset``,
``set``).  A scope's bindings come from the summarizer's scope model
(:func:`~repro.analysis.astutil.scope_bindings`), so a name that is
also a parameter, a loop or ``with`` target, or assigned anything but
a set expression is left alone, and so is a set reached through an
attribute, another scope's name or a call.  Set and dict
comprehensions and membership tests do not depend on the order.
"""

from __future__ import annotations

import ast
from typing import Dict, Set

from repro.analysis.astutil import (
    import_aliases,
    resolve_call_target,
    scope_bindings,
    walk_with_parents,
)
from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleInfo, Rule, register_rule

_UNORDERED_CALLS = {"os.listdir", "glob.glob", "glob.iglob"}
#: consumers that materialize the (arbitrary) order into an output
_ORDER_MATERIALIZERS = {"list", "tuple", "enumerate"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unordered_reason(node: ast.AST, aliases) -> str:
    """Why this expression has no defined order ('' when it does)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and \
                node.func.id in ("set", "frozenset"):
            return node.func.id
        target = resolve_call_target(node, aliases)
        if target in _UNORDERED_CALLS:
            return target
    return ""


def _set_names(scope: ast.AST, aliases) -> Set[str]:
    """Names ``scope`` binds, and binds only to set expressions."""
    bound, _ = scope_bindings(scope)
    return {name for name, values in bound.items()
            if all(_unordered_reason(value, aliases) in ("set", "frozenset")
                   for value in values)}


@register_rule
class NondeterministicIterationRule(Rule):
    rule_id = "R003"
    name = "nondeterministic-iteration"
    severity = Severity.ERROR
    description = (
        "iterating a set / os.listdir / glob in arbitrary order feeds "
        "nondeterminism into results; wrap in sorted(...)"
    )

    def check_module(self, module: ModuleInfo):
        aliases = import_aliases(module.tree)
        set_names: Dict[ast.AST, Set[str]] = {}  # per scope, on demand
        for node, parents in walk_with_parents(module.tree):
            iterated, where, consumer = self._iteration(node, parents)
            if iterated is None:
                continue
            reason = _unordered_reason(iterated, aliases)
            if not reason and isinstance(iterated, ast.Name):
                scope = next((p for p in reversed(parents)
                              if isinstance(p, _SCOPES)), module.tree)
                if scope not in set_names:
                    set_names[scope] = _set_names(scope, aliases)
                if iterated.id in set_names[scope]:
                    reason = f"set' held in '{iterated.id}"
            if not reason:
                continue
            if consumer:
                reason += f"' passed to '{consumer}"
            yield self.finding(
                module, where.lineno,
                f"iteration over unordered '{reason}' result; wrap it in "
                f"sorted(...) so the order is reproducible",
                col=where.col_offset,
            )

    @staticmethod
    def _iteration(node: ast.AST, parents):
        """``(iterated expression, node to report, materializer)`` when
        ``node`` iterates something, else ``(None, None, "")``."""
        if isinstance(node, (ast.For, ast.AsyncFor)):
            return node.iter, node.iter, ""
        if isinstance(node, ast.comprehension):
            # `{... for x in set(...)}` building a set/reduction is fine
            if parents and isinstance(parents[-1], (ast.SetComp,
                                                    ast.DictComp)):
                return None, None, ""
            return node.iter, node.iter, ""
        if isinstance(node, ast.Call) and node.args:
            # list(set(...)), tuple(os.listdir(...)), sep.join(set(...))
            if isinstance(node.func, ast.Name) and \
                    node.func.id in _ORDER_MATERIALIZERS:
                return node.args[0], node, node.func.id
            if isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "join":
                return node.args[0], node, "join"
        return None, None, ""
