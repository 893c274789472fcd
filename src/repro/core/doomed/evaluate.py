"""One stop rule, scorer and kill hook for every doomed-run predictor.

A predictor is any object with ``stop_signal(drvs, t) -> bool``, its
raw STOP signal after iteration ``t`` of a DRV series (the strategy
card, the HMM and the logistic baseline each define only that).  The
raw signal is oversensitive, so the paper requires 1, 2 or 3
*consecutive* STOPs before actually terminating: :func:`stop_iteration`
is that rule, :func:`evaluate_policy` scores it over a corpus, and
:class:`KillPolicy` deploys it as a live stop hook.

"Type 1 errors occur when the policy stops a run that would have
succeeded ... Type 2 errors occur when the policy allows a run to go to
completion, but the run fails."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.bench.corpus import RouterLog


@dataclass
class DoomedEvaluation:
    """Aggregate accuracy of a stop policy over a corpus."""

    n_logs: int
    type1_errors: int  # wrongly stopped a run that would have succeeded
    type2_errors: int  # never stopped a run that went on to fail
    correct_stops: int  # stopped runs that were indeed doomed
    iterations_saved: int  # router iterations avoided on stopped doomed runs
    consecutive_stops_required: int

    @property
    def total_errors(self) -> int:
        return self.type1_errors + self.type2_errors

    @property
    def error_rate(self) -> float:
        return self.total_errors / self.n_logs if self.n_logs else 0.0

    def summary_row(self) -> str:
        """One row of the paper's table."""
        return (
            f"{self.consecutive_stops_required} STOP(s): "
            f"total error {100 * self.error_rate:.1f}% "
            f"(#Type1 {self.type1_errors}, #Type2 {self.type2_errors}, "
            f"saved {self.iterations_saved} iterations)"
        )


def stop_iteration(predictor, drvs, consecutive: int = 1) -> Optional[int]:
    """Iteration index at which the predictor would terminate the run.

    Replays the DRV series; returns None when the run is allowed to
    finish.  Termination requires ``consecutive`` STOP signals in a row
    (the paper's accuracy fix).
    """
    if consecutive < 1:
        raise ValueError("consecutive must be >= 1")
    streak = 0
    for t in range(1, len(drvs)):
        if predictor.stop_signal(drvs, t):
            streak += 1
            if streak >= consecutive:
                return t
        else:
            streak = 0
    return None


def evaluate_policy(
    predictor, logs: Iterable[RouterLog], consecutive: int = 1
) -> DoomedEvaluation:
    """Type-1/Type-2 error accounting for one consecutive-STOP setting."""
    n = type1 = type2 = correct = saved = 0
    for log in logs:
        n += 1
        stop_at = stop_iteration(predictor, log.drvs, consecutive)
        if stop_at is not None:
            if log.success:
                type1 += 1
            else:
                correct += 1
                saved += (len(log.drvs) - 1) - stop_at
        else:
            if not log.success:
                type2 += 1
    if n == 0:
        raise ValueError("evaluation corpus is empty")
    return DoomedEvaluation(
        n_logs=n,
        type1_errors=type1,
        type2_errors=type2,
        correct_stops=correct,
        iterations_saved=saved,
        consecutive_stops_required=consecutive,
    )


@dataclass(frozen=True)
class KillPolicy:
    """A live stop hook for :class:`~repro.eda.routing.DetailedRouter`.

    Called with the DRV history so far, it returns True once the
    predictor has emitted ``consecutive`` STOPs in a row.  A module-level
    frozen dataclass, not a closure, so it pickles across the
    :class:`~repro.core.parallel.FlowExecutor` process boundary; pass
    it as ``DetailedRouter(...).route(..., stop_callback=...)``,
    ``SPRFlow(stop_callback=...)`` or a campaign's ``kill_policy``.
    """

    predictor: Any
    consecutive: int = 3

    def __post_init__(self):
        if self.consecutive < 1:
            raise ValueError("consecutive must be >= 1")

    def __call__(self, history) -> bool:
        return stop_iteration(self.predictor, history, self.consecutive) is not None
