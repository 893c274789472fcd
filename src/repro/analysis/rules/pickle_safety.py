"""R005: unpicklable objects crossing the executor process boundary.

Everything submitted to :class:`~repro.core.parallel.FlowExecutor`
(jobs, ``stop_callback``, ``map`` payloads) is pickled into pool
workers when ``n_workers > 1``.  Lambdas, nested functions, locks and
open file handles pickle either not at all or wrongly — and the
failure only appears in process mode, long after the serial tests went
green.  Job callables must be module-level functions and payloads plain
data (see ``run_flow_job`` / ``run_instrumented_flow_job``).

The rule inspects arguments (including inside list/tuple/dict literals
and nested constructor calls like ``FlowJob(...)``) at call sites whose
method name matches the executor surface: ``run_jobs``, ``run_one``,
``map``, ``submit``.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.analysis.astutil import import_aliases, resolve_call_target
from repro.analysis.findings import Severity
from repro.analysis.registry import ModuleInfo, Rule, register_rule

#: executor-surface method names whose arguments cross the process
#: boundary (the summarizer's R012 payload scan uses the same set)
_BOUNDARY_METHODS = {"run_jobs", "run_one", "map", "submit"}
_UNPICKLABLE_CALLS = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
}


def _payload_exprs(call: ast.Call) -> Iterator[ast.AST]:
    """Argument expressions, descending into containers/constructors."""
    stack = list(call.args) + [kw.value for kw in call.keywords]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Dict):
            stack.extend(v for v in node.values if v is not None)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            stack.append(node.elt)
        elif isinstance(node, ast.Call):
            stack.extend(node.args)
            stack.extend(kw.value for kw in node.keywords)


@register_rule
class PickleSafetyRule(Rule):
    rule_id = "R005"
    name = "unpicklable-across-pool"
    severity = Severity.ERROR
    description = (
        "lambdas, nested functions, locks and open files cannot cross "
        "the FlowExecutor process boundary; pass module-level "
        "functions and plain data"
    )

    def check_module(self, module: ModuleInfo):
        aliases = import_aliases(module.tree)
        yield from self._scan_scope(module.tree, module, aliases,
                                    nested_defs=frozenset())

    def _scan_scope(self, scope: ast.AST, module: ModuleInfo, aliases,
                    nested_defs: Set[str]):
        """Walk one function scope; recurse with its nested def names."""
        for node in self._scope_nodes(scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = {
                    child.name for child in ast.walk(node)
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                    and child is not node
                }
                inner |= {
                    target.id
                    for stmt in ast.walk(node)
                    if isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Lambda)
                    for target in stmt.targets
                    if isinstance(target, ast.Name)
                }
                yield from self._scan_scope(node, module, aliases, inner)
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _BOUNDARY_METHODS):
                continue
            method = node.func.attr
            for expr in _payload_exprs(node):
                problem = self._unpicklable(expr, aliases, nested_defs)
                if problem:
                    yield self.finding(
                        module, expr.lineno,
                        f"{problem} passed across the process boundary "
                        f"(.{method}); use a module-level function / "
                        f"plain data",
                        col=expr.col_offset,
                    )

    @staticmethod
    def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
        """All nodes of a scope without descending into nested defs."""
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _unpicklable(expr: ast.AST, aliases, nested_defs: Set[str]) -> str:
        if isinstance(expr, ast.Lambda):
            return "lambda"
        if isinstance(expr, ast.Name) and expr.id in nested_defs:
            return f"locally-defined callable '{expr.id}'"
        if isinstance(expr, ast.Call):
            target = resolve_call_target(expr, aliases)
            if target in _UNPICKLABLE_CALLS:
                return _UNPICKLABLE_CALLS[target]
            if isinstance(expr.func, ast.Name) and expr.func.id == "open":
                return "an open file handle"
        return ""
