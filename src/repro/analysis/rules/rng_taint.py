"""R012: RNG state crossing the process boundary (cross-file).

The repo's determinism charter hands every worker its own
``SeedSequence.spawn`` child; two shapes quietly break that and only
show up as run-to-run metric jitter:

- a ``numpy.random.Generator`` (or ``random.Random``) object is placed
  *in* an executor payload — pickling copies the generator's state, so
  every task draws the same stream (correlated "random" decisions), and
  any state the parent advances afterwards diverges from the copies;
- a function that runs *inside* the workers (a payload callable, an
  ``initializer=``, or anything they transitively call) constructs an
  unseeded RNG — each worker then seeds from OS entropy and no two runs
  agree.

The rule is interprocedural over the project call graph: boundary
payloads recorded by the summarizer seed a closure walk, and an
unseeded construction anywhere in the closure is reported *at the
boundary site* (R001 separately flags the construction line itself;
this finding explains which executor call ships it to the workers).
Factories are followed one hop: a payload call whose target's summary
``returns_generator`` is treated as shipping a generator.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule


@register_rule
class RngBoundaryRule(Rule):
    rule_id = "R012"
    name = "rng-across-process-boundary"
    severity = Severity.ERROR
    description = (
        "RNG generators must not cross the executor process boundary, "
        "and worker-side code must not construct unseeded RNGs "
        "(interprocedural)"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            for qualname, fn in sorted(summary.functions.items()):
                for payload in fn.boundary:
                    yield from self._check_payload(context, path, payload)

    def _check_payload(self, context, path, payload):
        if payload.kind == "rng-call":
            yield self.finding_at(
                path, payload.lineno,
                f"'{payload.target}' is constructed inside a "
                f"'{payload.method}' payload: the generator crosses the "
                f"process boundary; seed each task from "
                f"SeedSequence.spawn instead",
            )
            return
        if payload.kind == "rng-name":
            yield self.finding_at(
                path, payload.lineno,
                f"RNG generator '{payload.target}' is passed across the "
                f"process boundary via '{payload.method}': pickling "
                f"copies its state, so tasks draw correlated streams; "
                f"pass a spawned seed and construct the generator in the "
                f"worker",
            )
            return
        # callable / call payloads: follow the call graph into the workers
        target = payload.target
        fn = context.function(target)
        if fn is None:
            return
        if payload.kind == "call" and fn.returns_generator:
            yield self.finding_at(
                path, payload.lineno,
                f"'{target}' returns an RNG generator and its result is "
                f"shipped through '{payload.method}': the generator "
                f"crosses the process boundary; pass a spawned seed "
                f"instead",
            )
        site = self._unseeded_in_closure(context, target)
        if site is not None:
            where, line, ctor = site
            role = ("worker initializer" if payload.method == "initializer"
                    else f"'{payload.method}' payload")
            yield self.finding_at(
                path, payload.lineno,
                f"{role} '{target}' transitively constructs an unseeded "
                f"{ctor} (at {where}:{line}): workers seed from OS "
                f"entropy and runs stop being reproducible; thread a "
                f"spawned seed through instead",
            )

    @staticmethod
    def _unseeded_in_closure(
        context, start: str
    ) -> Optional[Tuple[str, int, str]]:
        """First unseeded RNG construction reachable from ``start``."""
        seen: Set[str] = {start}
        frontier: List[str] = [start]
        while frontier:
            token = frontier.pop(0)
            fn = context.function(token)
            if fn is None:
                continue
            if fn.rng_unseeded:
                line, _col, ctor = sorted(fn.rng_unseeded)[0]
                where = context.path_of(token) or token
                return where, line, ctor
            for callee in context.call_graph.get(token, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return None
