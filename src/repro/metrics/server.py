"""The METRICS server: central collection and query.

"Reimplementing METRICS with today's commodity networking, database and
cloud technologies will be much simpler compared to the initial
implementation" (the original used Enterprise Java Beans and servlets).
Here the server is a thin thread-safe façade over a pluggable
:class:`~repro.metrics.store.MetricsStore` backend:

- :class:`~repro.metrics.store.JsonlStore` (the default) — in-memory
  indexes plus optional hardened JSONL persistence, exactly the
  behavior this class used to implement inline;
- :class:`~repro.metrics.store.SqliteStore` — the multi-campaign
  warehouse (WAL concurrent writers, batched ingest, retention,
  cross-campaign queries).

The server's own responsibilities are collection-side: one
thread-safe ingest call, :meth:`MetricsServer.put`, which takes one
transmitter flush (the collector's drain thread and in-process
transmitters may share one server), decodes its XML records, stamps
every untagged record with the session's campaign id so history stays
sliceable after the fact, and stores the batch in one store call.
All queries delegate to the store.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence
from xml.etree.ElementTree import ParseError

from repro.metrics.schema import MetricRecord
from repro.metrics.store import (
    JsonlStore,
    MetricsStore,
    Trajectory,
    stamp_campaign,
)


class MetricsServer:
    """Collects :class:`MetricRecord` streams and answers queries.

    ``persist_path`` keeps the historical convenience constructor (a
    JSONL-backed store); pass ``store=`` to mount any backend instead.
    With ``campaign=``, every record that is not already tagged gets
    ``attributes["campaign"] = campaign`` on ingest — the wire format
    and the JSONL line format are unchanged, so files written by older
    sessions load as before (their records simply have no campaign).
    """

    def __init__(self, persist_path: Optional[str] = None,
                 store: Optional[MetricsStore] = None,
                 campaign: Optional[str] = None):
        if store is not None and persist_path is not None:
            raise ValueError("pass persist_path or store, not both")
        self._store = store if store is not None else JsonlStore(persist_path)
        self._lock = threading.Lock()
        self.campaign = campaign

    def __len__(self) -> int:
        return len(self._store)

    @property
    def store(self) -> MetricsStore:
        """The mounted backend (for store-specific operations)."""
        return self._store

    @property
    def persist_path(self):
        return getattr(self._store, "persist_path", None)

    @property
    def skipped_lines(self) -> int:
        return self._store.skipped_lines

    @property
    def null_values(self) -> int:
        return self._store.null_values

    # ------------------------------------------------------------------
    def _stamp(self, record: MetricRecord) -> MetricRecord:
        if self.campaign is None:
            return record
        return stamp_campaign(record, self.campaign)

    def put(self, message: Sequence[str]) -> int:
        """Ingest one transmitter flush, a list of XML records, in one
        store call (one transaction on a warehouse).  Thread-safe.

        An item that does not decode is skipped alone; returns how many
        records were taken.
        """
        records = []
        for item in message:
            try:
                records.append(MetricRecord.from_xml(item))
            except (ParseError, TypeError, ValueError):
                continue
        with self._lock:
            self._store.ingest([self._stamp(r) for r in records])
        return len(records)

    def close(self) -> None:
        """Release the backend (safe to call twice)."""
        with self._lock:
            self._store.close()

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def runs(self, design: Optional[str] = None,
             campaign: Optional[str] = None,
             since: Optional[int] = None) -> List[str]:
        """Run ids in sorted order, optionally restricted to one design,
        one campaign and/or runs first seen at/after ``since``."""
        return self._store.runs(design, campaign=campaign, since=since)

    def query(
        self,
        design: Optional[str] = None,
        tool: Optional[str] = None,
        metric: Optional[str] = None,
        run_id: Optional[str] = None,
        campaign: Optional[str] = None,
        since: Optional[int] = None,
    ) -> List[MetricRecord]:
        return self._store.query(design, tool, metric, run_id,
                                 campaign=campaign, since=since)

    def run_vector(self, run_id: str) -> Dict[str, float]:
        """All metrics of one run as a flat {metric: value} mapping.

        When a metric is reported more than once in a run, the last
        report wins (tools overwrite as they refine)."""
        return self._store.run_vector(run_id)

    def series(self, run_id: str, metric: str) -> List[float]:
        return self._store.series(run_id, metric)

    def trajectories(self, metric: str, design: Optional[str] = None,
                     campaign: Optional[str] = None,
                     since: Optional[int] = None) -> List[Trajectory]:
        return self._store.trajectories(metric, design=design,
                                        campaign=campaign, since=since)

    def campaigns(self) -> List[str]:
        return self._store.campaigns()

    def table(self, design: Optional[str] = None,
              campaign: Optional[str] = None,
              since: Optional[int] = None):
        """(run_ids, metric_names, matrix) over complete runs.

        Only metrics present in every selected run are kept, so the
        matrix is dense — what the data miner consumes."""
        return self._store.table(design, campaign=campaign, since=since)

    def run_vectors_matrix(self, metrics: Sequence[str],
                           design: Optional[str] = None,
                           campaign: Optional[str] = None,
                           since: Optional[int] = None):
        return self._store.run_vectors_matrix(
            metrics, design=design, campaign=campaign, since=since)
