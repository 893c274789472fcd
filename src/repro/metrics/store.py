"""Pluggable METRICS storage backends — the warehouse layer.

The paper's METRICS2.0 vision (Fig 11) is a *queryable warehouse over
all historical runs* feeding the correlation/doomed/surrogate models.
:class:`MetricsServer` used to hard-code one storage strategy (a JSONL
file plus in-memory dicts rebuilt per session); this module extracts
the storage/index/persistence concern behind the :class:`MetricsStore`
protocol with two interchangeable backends:

- :class:`JsonlStore` — the original hardened behavior, preserved
  bit-for-bit: in-memory lists/dicts, optional one-line-per-record
  ``O_APPEND`` persistence (atomic at line granularity for concurrent
  writer processes), torn-line-tolerant reload, non-finite values
  persisted as strict-JSON ``null``.
- :class:`SqliteStore` — the warehouse: schema'd tables (``records``,
  ``vectors``, ``runs``, ``campaigns``), WAL-mode concurrent writers,
  batched transactional ingest, retention compaction
  (:meth:`SqliteStore.compact`), and cross-campaign queries that do not
  require reloading history into memory.

Both backends answer the same query API (``runs``/``query``/
``run_vector``/``series``/``table``/``run_vectors_matrix``) with
deterministic, reproducible ordering, so the miner, the doomed-run
predictors, and the DSE surrogate can train on either.  Campaign
identity rides in each record's ``attributes["campaign"]`` — the wire
format and the JSONL line format are unchanged.

Timestamps are *logical*: every successfully ingested record advances a
monotone per-store counter (persisted by the sqlite backend), and
``since=`` filters select runs first seen at or after a counter value.
Wall-clock timestamps are deliberately not read here (rule R004) —
callers that want real time can stamp it into record attributes.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.schema import MetricRecord

#: attribute key carrying a record's campaign id
CAMPAIGN_ATTR = "campaign"

#: current sqlite schema version (bump on incompatible table changes)
SQLITE_SCHEMA = 1


def campaign_of(record: MetricRecord) -> Optional[str]:
    """The campaign id a record is tagged with, if any."""
    if record.attributes:
        return record.attributes.get(CAMPAIGN_ATTR)
    return None


def stamp_campaign(record: MetricRecord, campaign: str) -> MetricRecord:
    """A copy of ``record`` tagged with ``campaign`` (already-tagged
    records are returned unchanged: the original tag wins)."""
    if record.attributes and CAMPAIGN_ATTR in record.attributes:
        return record
    attributes = dict(record.attributes or {})
    attributes[CAMPAIGN_ATTR] = campaign
    return replace(record, attributes=attributes)


def dense_table(vectors: Sequence[Dict[str, float]]):
    """(metric_names, matrix) over run vectors, one row per vector.

    Only metrics present in every vector are kept, so the matrix is
    dense; names are sorted."""
    import numpy as np

    common = set(vectors[0])
    for vec in vectors[1:]:
        common &= set(vec)
    names = sorted(common)
    matrix = np.array([[vec[m] for m in names] for vec in vectors])
    return names, matrix


class MetricsStore:
    """The backend protocol: ingest + indexed queries + persistence.

    Concrete stores implement :meth:`receive`, :meth:`ingest`,
    :meth:`runs`, :meth:`query`, :meth:`run_vector`, :meth:`campaigns`,
    :meth:`close` and ``__len__``; the cross-cutting helpers
    (:meth:`series`, :meth:`table`, :meth:`run_vectors_matrix`, context
    management) are shared here.  ``skipped_lines`` counts source
    rows/lines the store could not decode; ``null_values`` counts
    non-finite measurements normalized away (persisted as null by the
    JSONL backend, never stored by the sqlite backend).
    """

    skipped_lines: int = 0
    null_values: int = 0

    # ------------------------------------------------------------ ingest
    def receive(self, record: MetricRecord) -> None:
        raise NotImplementedError

    def ingest(self, records: Sequence[MetricRecord]) -> int:
        """Batched ingest; returns the number of records stored.
        Backends override this with a transactional fast path."""
        for record in records:
            self.receive(record)
        return len(records)

    @property
    def ingest_count(self) -> int:
        """Monotone logical clock: records successfully stored so far.
        Snapshot it before a campaign to use as a ``since=`` bound."""
        raise NotImplementedError

    # ------------------------------------------------------------ queries
    def runs(self, design: Optional[str] = None,
             campaign: Optional[str] = None,
             since: Optional[int] = None) -> List[str]:
        raise NotImplementedError

    def query(self, design: Optional[str] = None, tool: Optional[str] = None,
              metric: Optional[str] = None, run_id: Optional[str] = None,
              campaign: Optional[str] = None,
              since: Optional[int] = None) -> List[MetricRecord]:
        raise NotImplementedError

    def run_vector(self, run_id: str) -> Dict[str, float]:
        raise NotImplementedError

    def campaigns(self) -> List[str]:
        """Campaign ids in first-seen order (deterministic)."""
        raise NotImplementedError

    def series(self, run_id: str, metric: str) -> List[float]:
        """One run's repeated reports of ``metric`` in sequence order —
        the trajectory form the doomed-run predictors train on."""
        records = self.query(run_id=run_id, metric=metric)
        return [r.value for r in sorted(records, key=lambda r: r.sequence)]

    def table(self, design: Optional[str] = None,
              campaign: Optional[str] = None,
              since: Optional[int] = None):
        """(run_ids, metric_names, matrix) over complete runs.

        Only metrics present in every selected run are kept, so the
        matrix is dense — what the data miner consumes."""
        run_ids = self.runs(design, campaign=campaign, since=since)
        if not run_ids:
            raise ValueError("no runs collected")
        names, matrix = dense_table([self.run_vector(r) for r in run_ids])
        return run_ids, names, matrix

    def run_vectors_matrix(self, metrics: Sequence[str],
                           design: Optional[str] = None,
                           campaign: Optional[str] = None,
                           since: Optional[int] = None):
        """(run_ids, matrix) aligned to an explicit feature basis.

        Rows are the (sorted) runs whose vectors contain *every*
        requested metric; columns follow ``metrics`` exactly — the
        feature-matrix form model training consumes."""
        import numpy as np

        names = list(metrics)
        if not names:
            raise ValueError("metrics basis must be non-empty")
        run_ids, rows = [], []
        for run_id in self.runs(design, campaign=campaign, since=since):
            vec = self.run_vector(run_id)
            if all(name in vec for name in names):
                run_ids.append(run_id)
                rows.append([vec[name] for name in names])
        matrix = (np.array(rows) if rows
                  else np.empty((0, len(names)), dtype=float))
        return run_ids, matrix

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "MetricsStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class JsonlStore(MetricsStore):
    """The original in-memory + JSONL backend, extracted verbatim.

    Persistence is hardened for parallel campaigns: each record is one
    line appended with a single unbuffered ``O_APPEND`` write (atomic
    at line granularity, so concurrent writer processes interleave
    whole lines), and reloading skips torn or corrupt lines left by a
    killed writer instead of refusing the file.  Non-finite values are
    persisted as strict-JSON ``null`` ("no value") and dropped
    (counted) on reload.
    """

    def __init__(self, persist_path: Optional[str] = None):
        self._records: List[MetricRecord] = []
        self._by_run: Dict[str, List[MetricRecord]] = {}
        self._first_seen: Dict[str, int] = {}  # run id -> ingest index
        self._run_campaign: Dict[str, Optional[str]] = {}
        self._campaigns: List[str] = []        # first-seen order
        self._ingested = 0
        self._persist_fh = None
        self.persist_path = Path(persist_path) if persist_path else None
        self.skipped_lines = 0  # corrupt/torn lines ignored at load
        self.null_values = 0  # non-finite values persisted as null
        if self.persist_path and self.persist_path.exists():
            self._load()

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------ ingest
    def receive(self, record: MetricRecord) -> None:
        self._index(record)
        if self.persist_path:
            self._append(record)

    def ingest(self, records: Sequence[MetricRecord]) -> int:
        for record in records:
            self.receive(record)
        return len(records)

    @property
    def ingest_count(self) -> int:
        return self._ingested

    def _index(self, record: MetricRecord) -> None:
        self._records.append(record)
        if record.run_id not in self._by_run:
            self._first_seen[record.run_id] = self._ingested
        self._by_run.setdefault(record.run_id, []).append(record)
        campaign = campaign_of(record)
        if campaign is not None and campaign not in self._campaigns:
            self._campaigns.append(campaign)
        # a run belongs to the first non-null campaign seen among its
        # records (later records backfill an untagged run, never retag)
        if self._run_campaign.get(record.run_id) is None:
            self._run_campaign[record.run_id] = campaign
        self._ingested += 1

    # ------------------------------------------------------------ queries
    def runs(self, design: Optional[str] = None,
             campaign: Optional[str] = None,
             since: Optional[int] = None) -> List[str]:
        """Run ids in sorted order, optionally restricted to one design,
        one campaign, and/or runs first seen at/after ``since``.

        A run's design and campaign are those of its *first* record
        (a later tagged record backfills an untagged run), matching the
        sqlite ``runs`` table.  All paths sort, so the ordering (and
        hence :meth:`table` row order) is deterministic regardless of
        the arrival order of records from parallel workers."""
        out: Iterable[str] = self._by_run.keys()
        if design is not None:
            out = (rid for rid in out
                   if self._by_run[rid][0].design == design)
        if campaign is not None:
            out = (rid for rid in out
                   if self._run_campaign.get(rid) == campaign)
        if since is not None:
            out = (rid for rid in out if self._first_seen[rid] >= since)
        return sorted(out)

    def query(self, design: Optional[str] = None, tool: Optional[str] = None,
              metric: Optional[str] = None, run_id: Optional[str] = None,
              campaign: Optional[str] = None,
              since: Optional[int] = None) -> List[MetricRecord]:
        if run_id is not None:
            out = self._by_run.get(run_id, [])  # unknown run -> no records
        else:
            out = self._records
        selected = set()
        if since is not None:
            selected = {rid for rid, seen in self._first_seen.items()
                        if seen >= since}
        return [
            r
            for r in out
            if (design is None or r.design == design)
            and (tool is None or r.tool == tool)
            and (metric is None or r.metric == metric)
            and (campaign is None or campaign_of(r) == campaign)
            and (since is None or r.run_id in selected)
        ]

    def run_vector(self, run_id: str) -> Dict[str, float]:
        """All metrics of one run as a flat {metric: value} mapping.

        When a metric is reported more than once in a run, the last
        report wins (tools overwrite as they refine)."""
        records = self._by_run.get(run_id)
        if not records:
            raise KeyError(f"unknown run {run_id!r}")
        out: Dict[str, float] = {}
        for record in sorted(records, key=lambda r: r.sequence):
            out[record.metric] = record.value
        return out

    def campaigns(self) -> List[str]:
        return list(self._campaigns)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Release the persistence file handle (safe to call twice)."""
        if self._persist_fh is not None:
            self._persist_fh.close()
            self._persist_fh = None

    # ------------------------------------------------------------ internals
    @staticmethod
    def _encode(record: MetricRecord) -> dict:
        return {
            "design": record.design,
            "run_id": record.run_id,
            "tool": record.tool,
            "metric": record.metric,
            "value": record.value,
            "sequence": record.sequence,
            "attributes": record.attributes,
        }

    def _append(self, record: MetricRecord) -> None:
        # unbuffered binary append: one write() call per line on an
        # O_APPEND descriptor, so concurrent writers never tear a line
        if self._persist_fh is None:
            self._persist_fh = open(self.persist_path, "ab", buffering=0)
        payload = self._encode(record)
        # strict JSON has no Infinity/NaN literal — a plain dumps would
        # emit python-only tokens that any conforming reader rejects.
        # Persist non-finite measurements as null ("no value") and keep
        # allow_nan=False so no such token can ever slip into the file.
        if not math.isfinite(payload["value"]):
            payload["value"] = None
        line = json.dumps(payload, allow_nan=False) + "\n"
        self._persist_fh.write(line.encode())

    def _load(self) -> None:
        with self.persist_path.open() as fh:
            for line in fh:
                record = _decode_jsonl_line(line)
                if record is None:
                    continue
                if record is _NULL_VALUE:
                    # a non-finite measurement persisted as null:
                    # "no value", so there is no record to rebuild
                    self.null_values += 1
                    continue
                if record is _CORRUPT:
                    self.skipped_lines += 1  # torn line from a killed writer
                    continue
                self._index(record)


#: sentinels for :func:`_decode_jsonl_line`
_NULL_VALUE = object()
_CORRUPT = object()


def _decode_jsonl_line(line: str):
    """One JSONL line -> MetricRecord | _NULL_VALUE | _CORRUPT | None.

    ``None`` means a blank line (nothing to count); ``_NULL_VALUE`` a
    non-finite measurement persisted as null; ``_CORRUPT`` a torn or
    foreign line."""
    line = line.strip()
    if not line:
        return None
    try:
        data = json.loads(line)
        if data["value"] is None:
            return _NULL_VALUE
        return MetricRecord(
            design=data["design"],
            run_id=data["run_id"],
            tool=data["tool"],
            metric=data["metric"],
            value=data["value"],
            sequence=data.get("sequence", 0),
            attributes=data.get("attributes"),
        )
    except (ValueError, KeyError, TypeError):
        return _CORRUPT


class SqliteStore(MetricsStore):
    """The warehouse backend: schema'd, WAL-mode, multi-campaign sqlite.

    Tables::

        records(seq_no, design, run_id, tool, metric, value, sequence,
                campaign, attributes)   -- the full record stream
        vectors(run_id, metric, value, sequence)  -- last-wins run vectors
        runs(run_id, design, campaign, first_seen)
        campaigns(campaign, first_seen)
        meta(key, value)                -- schema version

    ``records`` is indexed on ``(run_id, metric)``, ``design``,
    ``metric`` and ``campaign``.  The run+metric index serves per-run
    trajectory reads (``series``, ``query(run_id=..., metric=...)``)
    without walking every record of the metric, and its leftmost column
    serves run-only lookups; opening an older warehouse adds it and
    drops the run-only index it replaces.

    Every writer process opens its own :class:`SqliteStore` on the same
    path; WAL mode plus a busy timeout makes concurrent multi-process
    ingest safe (whole transactions interleave, never partial rows).
    ``seq_no`` is the logical ingest clock — it orders ``query`` output
    and anchors ``since=`` filters and each run/campaign's
    ``first_seen``.  Non-finite values are normalized away at ingest
    (counted in ``null_values``), matching what a reloaded
    :class:`JsonlStore` exposes, so the two backends answer queries
    identically on the same record stream.
    """

    def __init__(self, path: str, timeout_s: float = 30.0):
        self.path = str(path)
        self.skipped_lines = 0
        self.null_values = 0
        self._lock = threading.Lock()
        # the collector's drain thread may not be the creating thread;
        # our own lock serializes every use of the connection
        self._conn = sqlite3.connect(self.path, timeout=timeout_s,
                                     check_same_thread=False)
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._create_schema()

    def _create_schema(self) -> None:
        with self._lock, self._conn:
            self._conn.executescript(
                """
                CREATE TABLE IF NOT EXISTS meta(
                    key TEXT PRIMARY KEY, value TEXT NOT NULL);
                CREATE TABLE IF NOT EXISTS records(
                    seq_no INTEGER PRIMARY KEY AUTOINCREMENT,
                    design TEXT NOT NULL,
                    run_id TEXT NOT NULL,
                    tool TEXT NOT NULL,
                    metric TEXT NOT NULL,
                    value REAL NOT NULL,
                    sequence INTEGER NOT NULL,
                    campaign TEXT,
                    attributes TEXT);
                CREATE INDEX IF NOT EXISTS idx_records_run_metric
                    ON records(run_id, metric);
                DROP INDEX IF EXISTS idx_records_run;
                CREATE INDEX IF NOT EXISTS idx_records_design
                    ON records(design);
                CREATE INDEX IF NOT EXISTS idx_records_metric
                    ON records(metric);
                CREATE INDEX IF NOT EXISTS idx_records_campaign
                    ON records(campaign);
                CREATE TABLE IF NOT EXISTS vectors(
                    run_id TEXT NOT NULL,
                    metric TEXT NOT NULL,
                    value REAL NOT NULL,
                    sequence INTEGER NOT NULL,
                    PRIMARY KEY(run_id, metric)) WITHOUT ROWID;
                CREATE TABLE IF NOT EXISTS runs(
                    run_id TEXT PRIMARY KEY,
                    design TEXT NOT NULL,
                    campaign TEXT,
                    first_seen INTEGER NOT NULL);
                CREATE TABLE IF NOT EXISTS campaigns(
                    campaign TEXT PRIMARY KEY,
                    first_seen INTEGER NOT NULL);
                """
            )
            self._conn.execute(
                "INSERT OR IGNORE INTO meta(key, value) VALUES(?, ?)",
                ("schema", str(SQLITE_SCHEMA)),
            )

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM records").fetchone()
        return int(row[0])

    # ------------------------------------------------------------ ingest
    def receive(self, record: MetricRecord) -> None:
        self.ingest([record])

    def ingest(self, records: Sequence[MetricRecord]) -> int:
        """One transaction for the whole batch (the collector's drain
        thread hands over everything queued at once).  Returns the
        number of records stored; non-finite values are normalized away
        and counted in ``null_values``."""
        stored = 0
        with self._lock, self._conn:
            for record in records:
                if not math.isfinite(record.value):
                    self.null_values += 1  # "no value": nothing to store
                    continue
                campaign = campaign_of(record)
                attributes = (
                    json.dumps(record.attributes, sort_keys=True)
                    if record.attributes else None
                )
                cur = self._conn.execute(
                    "INSERT INTO records(design, run_id, tool, metric, "
                    "value, sequence, campaign, attributes) "
                    "VALUES(?, ?, ?, ?, ?, ?, ?, ?)",
                    (record.design, record.run_id, record.tool,
                     record.metric, float(record.value),
                     int(record.sequence), campaign, attributes),
                )
                seq_no = cur.lastrowid
                self._conn.execute(
                    "INSERT INTO vectors(run_id, metric, value, sequence) "
                    "VALUES(?, ?, ?, ?) "
                    "ON CONFLICT(run_id, metric) DO UPDATE SET "
                    "value=excluded.value, sequence=excluded.sequence "
                    "WHERE excluded.sequence >= vectors.sequence",
                    (record.run_id, record.metric, float(record.value),
                     int(record.sequence)),
                )
                self._conn.execute(
                    "INSERT OR IGNORE INTO runs(run_id, design, campaign, "
                    "first_seen) VALUES(?, ?, ?, ?)",
                    (record.run_id, record.design, campaign, seq_no),
                )
                if campaign is not None:
                    self._conn.execute(
                        "UPDATE runs SET campaign=? "
                        "WHERE run_id=? AND campaign IS NULL",
                        (campaign, record.run_id),
                    )
                    self._conn.execute(
                        "INSERT OR IGNORE INTO campaigns(campaign, "
                        "first_seen) VALUES(?, ?)",
                        (campaign, seq_no),
                    )
                stored += 1
        return stored

    @property
    def ingest_count(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(seq_no), 0) FROM records").fetchone()
        return int(row[0])

    # ------------------------------------------------------------ queries
    @staticmethod
    def _run_filters(design, campaign, since) -> Tuple[str, list]:
        clauses, params = [], []
        if design is not None:
            clauses.append("design = ?")
            params.append(design)
        if campaign is not None:
            clauses.append("campaign = ?")
            params.append(campaign)
        if since is not None:
            clauses.append("first_seen >= ?")
            params.append(int(since))
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        return where, params

    def runs(self, design: Optional[str] = None,
             campaign: Optional[str] = None,
             since: Optional[int] = None) -> List[str]:
        """Run ids in sorted order (deterministic at any writer count)."""
        where, params = self._run_filters(design, campaign, since)
        sql = f"SELECT run_id FROM runs{where} ORDER BY run_id"
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        return [row[0] for row in rows]

    def query(self, design: Optional[str] = None, tool: Optional[str] = None,
              metric: Optional[str] = None, run_id: Optional[str] = None,
              campaign: Optional[str] = None,
              since: Optional[int] = None) -> List[MetricRecord]:
        """Matching records in ingest (``seq_no``) order — identical to
        the JSONL backend's insertion order for the same stream.  Rows
        that fail to decode (foreign writers, unknown metric names) are
        skipped and counted in ``skipped_lines``."""
        clauses, params = [], []
        for column, value in (("design", design), ("tool", tool),
                              ("metric", metric), ("run_id", run_id)):
            if value is not None:
                clauses.append(f"records.{column} = ?")
                params.append(value)
        if campaign is not None:
            clauses.append("records.campaign = ?")
            params.append(campaign)
        join = ""
        if since is not None:
            join = " JOIN runs ON runs.run_id = records.run_id"
            clauses.append("runs.first_seen >= ?")
            params.append(int(since))
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        sql = (
            "SELECT records.design, records.run_id, records.tool, "
            "records.metric, records.value, records.sequence, "
            f"records.attributes FROM records{join}{where} "
            "ORDER BY records.seq_no"
        )
        with self._lock:
            rows = self._conn.execute(sql, params).fetchall()
        out: List[MetricRecord] = []
        for row in rows:
            record = self._decode_row(row)
            if record is not None:
                out.append(record)
        return out

    def _decode_row(self, row) -> Optional[MetricRecord]:
        try:
            attributes = json.loads(row[6]) if row[6] else None
            if attributes is not None and not isinstance(attributes, dict):
                raise TypeError("attributes must decode to a dict")
            return MetricRecord(
                design=row[0], run_id=row[1], tool=row[2], metric=row[3],
                value=float(row[4]), sequence=int(row[5]),
                attributes=attributes,
            )
        except (ValueError, KeyError, TypeError):
            self.skipped_lines += 1  # corrupt row from a foreign writer
            return None

    def run_vector(self, run_id: str) -> Dict[str, float]:
        """Last-wins {metric: value} straight off the ``vectors`` table."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT metric, value FROM vectors WHERE run_id = ? "
                "ORDER BY metric",
                (run_id,),
            ).fetchall()
        if not rows:
            raise KeyError(f"unknown run {run_id!r}")
        return {metric: value for metric, value in rows}

    def campaigns(self) -> List[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT campaign FROM campaigns ORDER BY first_seen, campaign"
            ).fetchall()
        return [row[0] for row in rows]

    def series(self, run_id: str, metric: str) -> List[float]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT value FROM records WHERE run_id = ? AND metric = ? "
                "ORDER BY sequence, seq_no",
                (run_id, metric),
            ).fetchall()
        return [row[0] for row in rows]

    def run_vectors_matrix(self, metrics: Sequence[str],
                           design: Optional[str] = None,
                           campaign: Optional[str] = None,
                           since: Optional[int] = None):
        """SQL fast path: one join over ``vectors``, pivoted in SQL.

        A run holds each metric at most once (the table's key), so a
        column's ``MAX(CASE ...)`` is that one stored value, and a run
        whose group counts every distinct basis metric has them all."""
        import numpy as np

        names = list(metrics)
        if not names:
            raise ValueError("metrics basis must be non-empty")
        distinct = sorted(set(names))
        where, params = self._run_filters(design, campaign, since)
        columns = ", ".join(
            "MAX(CASE WHEN vectors.metric = ? THEN vectors.value END)"
            for _ in names)
        placeholders = ",".join("?" for _ in distinct)
        sql = (
            f"SELECT vectors.run_id, {columns} "
            "FROM vectors JOIN "
            f"(SELECT run_id FROM runs{where}) AS selected "
            "ON selected.run_id = vectors.run_id "
            f"WHERE vectors.metric IN ({placeholders}) "
            "GROUP BY vectors.run_id HAVING COUNT(*) = ? "
            "ORDER BY vectors.run_id"
        )
        with self._lock:
            rows = self._conn.execute(
                sql, names + params + distinct + [len(distinct)]).fetchall()
        run_ids = [row[0] for row in rows]
        matrix = (np.array([row[1:] for row in rows], dtype=float)
                  if rows else np.empty((0, len(names)), dtype=float))
        return run_ids, matrix

    # ------------------------------------------------------------ retention
    def compact(self, keep_last_n_campaigns: int,
                vacuum: bool = True) -> int:
        """Retention: drop every campaign but the ``n`` most recent.

        Campaign recency is first-seen ingest order.  Records that were
        never tagged with a campaign are kept (they belong to no
        droppable campaign).  Returns the number of records removed;
        ``vacuum=True`` also reclaims the file space.
        """
        if keep_last_n_campaigns < 1:
            raise ValueError("keep_last_n_campaigns must be >= 1")
        keep = self.campaigns()[-keep_last_n_campaigns:]
        with self._lock, self._conn:
            all_campaigns = [row[0] for row in self._conn.execute(
                "SELECT campaign FROM campaigns").fetchall()]
            drop = sorted(set(all_campaigns) - set(keep))
            if not drop:
                return 0
            placeholders = ",".join("?" for _ in drop)
            removed = self._conn.execute(
                f"SELECT COUNT(*) FROM records "
                f"WHERE campaign IN ({placeholders})", drop).fetchone()[0]
            self._conn.execute(
                "DELETE FROM vectors WHERE run_id IN "
                f"(SELECT run_id FROM runs WHERE campaign IN ({placeholders}))",
                drop)
            self._conn.execute(
                f"DELETE FROM records WHERE campaign IN ({placeholders})",
                drop)
            self._conn.execute(
                f"DELETE FROM runs WHERE campaign IN ({placeholders})", drop)
            self._conn.execute(
                f"DELETE FROM campaigns WHERE campaign IN ({placeholders})",
                drop)
        if vacuum:
            with self._lock:
                self._conn.execute("VACUUM")
        return int(removed)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None  # type: ignore[assignment]

    def receive_jsonl(self, jsonl_path: str,
                      campaign: Optional[str] = None,
                      batch_size: int = 1000) -> "MigrationReport":
        """Stream a JSONL metrics file into the warehouse.

        Decodes with the same tolerance as a :class:`JsonlStore` reload
        (torn lines skipped, nulls counted) and ingests in transactions
        of ``batch_size``.  With ``campaign``, untagged records are
        stamped on the way in.  This is both ``repro metrics ingest``
        and (unstamped) ``repro metrics migrate``.
        """
        report = MigrationReport()
        batch: List[MetricRecord] = []
        with open(jsonl_path, encoding="utf-8") as fh:
            for line in fh:
                record = _decode_jsonl_line(line)
                if record is None:
                    continue
                if record is _NULL_VALUE:
                    report.null_values += 1
                    continue
                if record is _CORRUPT:
                    report.skipped_lines += 1
                    continue
                if campaign is not None:
                    record = stamp_campaign(record, campaign)
                batch.append(record)
                if len(batch) >= batch_size:
                    report.records += self.ingest(batch)
                    report.batches += 1
                    batch = []
        if batch:
            report.records += self.ingest(batch)
            report.batches += 1
        return report


@dataclass
class MigrationReport:
    """What a JSONL -> warehouse conversion did."""

    records: int = 0       # records stored in the warehouse
    batches: int = 0       # ingest transactions used
    null_values: int = 0   # non-finite (null) source values dropped
    skipped_lines: int = 0  # torn/corrupt source lines skipped


def migrate_jsonl(jsonl_path: str, store: SqliteStore,
                  campaign: Optional[str] = None,
                  batch_size: int = 1000) -> MigrationReport:
    """Convert an existing JSONL metrics file into a warehouse.

    Zero record loss by construction: every line a reloaded
    :class:`JsonlStore` would index is stored (and every line it would
    drop is counted the same way) — the acceptance tests assert count
    and per-run-vector equality between the two."""
    return store.receive_jsonl(jsonl_path, campaign=campaign,
                               batch_size=batch_size)


def open_store(path: str) -> MetricsStore:
    """Open ``path`` with the right backend, sniffing the file format.

    An existing file beginning with the sqlite magic (or an ``.sqlite``/
    ``.db`` suffix for new files) gets a :class:`SqliteStore`; anything
    else a :class:`JsonlStore`."""
    p = Path(path)
    if p.exists() and p.stat().st_size >= 16:
        with open(p, "rb") as fh:
            if fh.read(16).startswith(b"SQLite format 3"):
                return SqliteStore(path)
        return JsonlStore(path)
    if p.suffix.lower() in (".sqlite", ".sqlite3", ".db"):
        return SqliteStore(path)
    return JsonlStore(path)
