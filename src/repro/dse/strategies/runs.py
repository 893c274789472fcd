"""Per-run bookkeeping shared by the flow strategies.

Every flow strategy files an executor outcome the same way: the run is
counted and charged to the campaign budget, a
:class:`~repro.core.parallel.FlowExecutionError` lands in ``failures``,
and a :class:`~repro.eda.flow.FlowResult` charges its runtime proxy,
joins the objective's Pareto front and is ranked by ``objective.key``
(:func:`file_run`).  The strategies that rank run by run (``sweep``,
``miner``) also keep the score, the best result and the best-so-far
``trace`` here (:func:`record_run`); the ``explorer`` ranks a round at
a time.
"""

from __future__ import annotations

import numpy as np

from repro.core.parallel import FlowExecutionError
from repro.dse.result import DSEResult


def file_run(result: DSEResult, ctx, run) -> float:
    """Count one outcome into ``result`` and the campaign budget.

    Returns the run's ranking key, ``-inf`` for a failed job."""
    result.n_runs += 1
    ctx.tracker.charge_runs(1)
    if isinstance(run, FlowExecutionError):
        result.n_failed += 1
        result.failures.append(run)
        return -np.inf
    result.total_runtime_proxy += run.runtime_proxy
    ctx.tracker.charge_proxy(run.runtime_proxy)
    result.pareto = ctx.objective.update_front(result.pareto, run)
    return ctx.objective.key(run)


def record_run(result: DSEResult, ctx, run, best_key: float) -> float:
    """:func:`file_run`, then the run's score, best result and trace.

    Every run appends its key to ``all_scores``; a successful job also
    appends the best value so far to ``trace`` (a failed job adds no
    entry), after becoming ``best_result`` if its key beats
    ``best_key``, so the first of equal keys wins.  Returns the best
    key after this run."""
    key = file_run(result, ctx, run)
    result.all_scores.append(key)
    if isinstance(run, FlowExecutionError):
        return best_key
    if key > best_key:
        best_key = key
        result.best_result = run
        result.best_score = ctx.objective.value(run)
    result.trace.append(result.best_score)
    return best_key
