"""R005: unpicklable objects crossing the executor process boundary.

Everything submitted to :class:`~repro.core.parallel.FlowExecutor`
(jobs, ``stop_callback``, ``map`` payloads) is pickled into pool
workers when ``n_workers > 1``.  Lambdas, nested functions, locks and
open file handles pickle either not at all or wrongly — and the
failure only appears in process mode, long after the serial tests went
green.  Job callables must be module-level functions and payloads plain
data (see ``run_flow_job`` / ``run_instrumented_flow_job``).

The rule reads the boundary payloads the summarizer records at call
sites whose method name matches the executor surface (``run_jobs``,
``run_one``, ``map``, ``submit``), including payloads inside
list/tuple/dict literals and nested constructor calls like
``FlowJob(...)``: a lambda, a name the enclosing function binds to a
``def`` or a lambda, a ``threading`` primitive, and ``open(...)``.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule

#: executor-surface method names whose arguments cross the process
#: boundary (the summarizer records their payloads for R005 and R012)
_BOUNDARY_METHODS = {"run_jobs", "run_one", "map", "submit"}
_UNPICKLABLE_CALLS = {
    "threading.Lock": "a threading.Lock",
    "threading.RLock": "a threading.RLock",
    "threading.Condition": "a threading.Condition",
    "threading.Event": "a threading.Event",
    "threading.Semaphore": "a threading.Semaphore",
}


def _unpicklable(kind: str, target: str) -> str:
    """What a payload of this kind is, if it cannot be pickled ('')."""
    if kind == "lambda":
        return "lambda"
    if kind == "local-callable":
        return f"locally-defined callable '{target}'"
    if kind == "threading":
        return _UNPICKLABLE_CALLS[target]
    if kind == "open":
        return "an open file handle"
    return ""


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

    def check_context(self, context):
        for path, summary in context.summaries.items():
            for fn in summary.functions.values():
                for payload in fn.boundary:
                    problem = _unpicklable(payload.kind, payload.target)
                    if problem:
                        yield self.finding_at(
                            path, payload.lineno,
                            f"{problem} passed across the process boundary "
                            f"(.{payload.method}); use a module-level "
                            f"function / plain data",
                            col=payload.col,
                        )
