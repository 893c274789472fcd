"""Training doomed-run predictors from the metrics warehouse.

The paper's Sec 3.3 predictors were trained on logfile corpora gathered
offline; with the METRICS warehouse every instrumented flow run already
persists its detailed-router convergence trajectory (one
``droute.drv_trajectory`` record per rip-up-and-reroute iteration), so
the training corpus can be rebuilt *from the archive* — across designs,
campaigns and sessions — instead of re-running routers.

:func:`router_logs_from_store` turns stored trajectories back into
:class:`~repro.bench.corpus.RouterLog` objects; the predictors'
``fit_from_store`` methods are thin wrappers over it.  It reads the
selection's trajectories in one store call
(:meth:`~repro.metrics.store.MetricsStore.trajectories`, one query on a
warehouse) and each run's vector for its outcome and router effort.
"""

from __future__ import annotations

from typing import List, Optional

from repro.bench.corpus import RouterLog
from repro.eda.routing import SUCCESS_DRV_THRESHOLD

#: the warehouse metric carrying per-iteration DRV counts
TRAJECTORY_METRIC = "droute.drv_trajectory"


def router_logs_from_store(store, design: Optional[str] = None,
                           campaign: Optional[str] = None,
                           since: Optional[int] = None) -> List[RouterLog]:
    """Rebuild a router-log corpus from stored DRV trajectories.

    ``store`` is anything with the store query API — a
    :class:`~repro.metrics.server.MetricsServer` or a warehouse backend
    opened directly.  One :class:`RouterLog` per run that reported a
    trajectory, in the store's deterministic (sorted) run order.  The
    success label is the paper's routing criterion (final DRVs under
    the threshold — a run that routed clean but missed timing is not a
    *doomed route*); ``domain`` is the design of the run's first
    trajectory record, and ``difficulty`` its ``option.router_effort``
    setting when collected (0.0 otherwise).
    """
    logs: List[RouterLog] = []
    for run_id, domain, values in store.trajectories(
            TRAJECTORY_METRIC, design=design, campaign=campaign, since=since):
        drvs = [int(v) for v in values]
        vector = store.run_vector(run_id)
        final = vector.get("droute.final_drvs", drvs[-1])
        logs.append(RouterLog(
            drvs=drvs,
            success=final < SUCCESS_DRV_THRESHOLD,
            domain=domain,
            difficulty=float(vector.get("option.router_effort", 0.0)),
        ))
    return logs
