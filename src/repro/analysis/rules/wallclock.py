"""R004: wall-clock reads in deterministic code paths.

Flow and worker code must be a pure function of (design, options,
seed): the substrate models tool cost with a *runtime proxy*
(``FlowResult.runtime_proxy``), so reading the host clock inside a flow
step makes results machine- and load-dependent, and two runs of the
same campaign stop being bit-identical.  ``time.perf_counter`` is
deliberately **not** flagged: it measures durations for executor stats
and never feeds a result.

Like R001, the rule reads the summaries' resolved call sites.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule

_WALL_CLOCK_CALLS = {
    "time.time": "the runtime proxy (FlowResult.runtime_proxy)",
    "time.time_ns": "the runtime proxy (FlowResult.runtime_proxy)",
    "time.localtime": "an injected timestamp",
    "time.gmtime": "an injected timestamp",
    "time.ctime": "an injected timestamp",
    "time.strftime": "an injected timestamp",
    "datetime.datetime.now": "an injected timestamp",
    "datetime.datetime.utcnow": "an injected timestamp",
    "datetime.datetime.today": "an injected timestamp",
    "datetime.date.today": "an injected timestamp",
}


@register_rule
class WallClockRule(Rule):
    rule_id = "R004"
    name = "wall-clock-read"
    severity = Severity.ERROR
    description = (
        "time.time()/datetime.now() make results host- and load-"
        "dependent; use the runtime proxy or inject the timestamp"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            for fn in summary.functions.values():
                for site in fn.calls:
                    instead = _WALL_CLOCK_CALLS.get(site.target)
                    if instead:
                        yield self.finding_at(
                            path, site.lineno,
                            f"wall-clock read '{site.target}' in "
                            f"deterministic code; use {instead}",
                            col=site.col,
                        )
