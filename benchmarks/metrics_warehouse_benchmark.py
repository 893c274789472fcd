"""Metrics warehouse benchmark: sqlite archive vs JSONL reload.

Before the warehouse, every consumer of historical metrics (miner,
doomed predictors, surrogate pre-training) paid the legacy cost per
session: reload the whole JSONL file, re-parse every line, then filter
in memory.  The sqlite backend pays parsing once at ingest and answers
cross-campaign queries off indexes.  This benchmark times one *query
session* — open the store, list runs per campaign, pull run vectors
and the dense ``run_vectors_matrix`` training basis — against the same
record stream persisted both ways.

Checks (exit code 1 on failure):

- every query answer is identical between the two backends
  (``bit_identical``: runs lists, per-run vectors, matrix contents);
- the sqlite session clears ``--min-speedup`` (default 3x) over the
  JSONL-reload session.

The ``miner`` section times the other half of a mining session: the
random forest ``DataMiner.recommend_options`` fits (40 trees, depth 6)
on a 16-run x 6-option table and its prediction of 416 candidate
settings, live against the frozen recursive trees of
``tests/ml/trees_reference.py`` (the script puts the repository root on
``sys.path`` to import them).  Its checks:

- the live forest's predictions are bit-identical to the oracle's, on
  the campaign table and on a 400-run full-history table;
- fit + predict is >= 3x faster on the campaign table, and not slower
  than the oracle on the full-history table.

Timings are best-of ``--repeats`` to shrug off CI load spikes (at
least 5 for the miner's campaign table; the slow full-history oracle
runs once), and the miner's two forests are timed alternately so host
drift hits both.  ``--json PATH`` merges
machine-readable summaries into ``PATH`` under the ``"metrics"`` and
``"miner"`` keys (see ``make bench-trajectory``); ``--smoke`` shrinks
the stream and repetitions for CI while keeping every assertion.

Usage::

    PYTHONPATH=src python benchmarks/metrics_warehouse_benchmark.py
    PYTHONPATH=src python benchmarks/metrics_warehouse_benchmark.py \
        --smoke --json BENCH_metrics.json
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from vectorized_sta_benchmark import merge_json  # noqa: E402

from repro.ml.forest import RandomForestRegressor  # noqa: E402
from tests.ml.trees_reference import RandomForestRegressor as ReferenceForest  # noqa: E402

BASIS = ["flow.area", "flow.achieved_ghz", "signoff.wns", "place.hpwl"]
CAMPAIGNS = ("c0", "c1", "c2", "c3")

MIN_MINER_SPEEDUP = 3.0  # the floor check_bench_regression.py also holds
MINER_FOREST = dict(n_estimators=40, max_depth=6, random_state=0)
MINER_RUNS = 16          # runs of one campaign
MINER_OPTIONS = 6        # option metrics mined
MINER_CANDIDATES = 400   # sampled settings; the table's own rows follow
HISTORY_RUNS = 400       # a full-history table


def make_records(n_runs, seed=0):
    """A deterministic multi-campaign stream: every run carries the
    full metric basis plus refinement duplicates."""
    from repro.metrics import MetricRecord
    from repro.metrics.store import stamp_campaign

    rng = np.random.default_rng(seed)
    records = []
    seq = 0
    for i in range(n_runs):
        campaign = CAMPAIGNS[i % len(CAMPAIGNS)]
        design = "alpha" if i % 3 else "beta"
        run_id = f"{campaign}-run{i:05d}"
        for metric in BASIS + ["flow.success"]:
            value = float(rng.normal(100.0, 30.0))
            records.append(stamp_campaign(MetricRecord(
                design=design, run_id=run_id, tool="spr_flow",
                metric=metric, value=value, sequence=seq), campaign))
            seq += 1
        # one refined re-report, as tools overwrite while converging
        records.append(stamp_campaign(MetricRecord(
            design=design, run_id=run_id, tool="spr_flow",
            metric="flow.area", value=float(rng.normal(100.0, 30.0)),
            sequence=seq), campaign))
        seq += 1
    return records


def query_session(store):
    """The consumer workload: cross-campaign run listing, the dense
    training matrix, and a sample of run vectors."""
    out = []
    runs_all = store.runs()
    out.append(runs_all)
    for campaign in CAMPAIGNS:
        out.append(store.runs(campaign=campaign))
    rows, matrix = store.run_vectors_matrix(BASIS)
    out.append((rows, matrix.tolist()))
    for run_id in runs_all[::7]:
        out.append(sorted(store.run_vector(run_id).items()))
    return out


def miner_table(n_runs, seed=0):
    """(options, objective, candidates) shaped like a mining session:
    options in the sampled ranges, an objective with noise, and the
    uniformly drawn candidate settings followed by the table itself."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.3, 1.0, size=(n_runs, MINER_OPTIONS))
    y = X @ rng.normal(100.0, 40.0, size=MINER_OPTIONS) + rng.normal(size=n_runs)
    sampled = rng.uniform(X.min(axis=0), X.max(axis=0),
                          size=(MINER_CANDIDATES, MINER_OPTIONS))
    return X, y, np.vstack([sampled, X])


def time_miner(table, repeats):
    """Best-of-``repeats`` seconds of fit + predict for the live forest
    and the oracle, timed alternately; returns both times and whether
    their predictions are bit-identical."""
    X, y, candidates = table
    best = {}
    preds = {}
    for _ in range(repeats):
        for forest in (RandomForestRegressor, ReferenceForest):
            gc.collect()
            gc.disable()  # keep collector pauses out of the timed window
            try:
                t0 = time.perf_counter()
                model = forest(**MINER_FOREST).fit(X, y)
                preds[forest] = model.predict(candidates)
                elapsed = time.perf_counter() - t0
            finally:
                gc.enable()
            best[forest] = min(best.get(forest, float("inf")), elapsed)
    identical = (preds[RandomForestRegressor].tobytes()
                 == preds[ReferenceForest].tobytes())
    return best[RandomForestRegressor], best[ReferenceForest], identical


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=800,
                        help="flow runs in the synthetic archive")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best-of)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="required sqlite-vs-jsonl-reload speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="smaller archive, fewer repetitions (CI); "
                             "same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge a 'metrics' summary section into PATH")
    args = parser.parse_args(argv)
    n_runs = 200 if args.smoke else args.runs
    repeats = 2 if args.smoke else args.repeats

    from repro.metrics import JsonlStore, SqliteStore

    records = make_records(n_runs)
    failures = []
    with tempfile.TemporaryDirectory(prefix="metrics-bench-") as tmp:
        jsonl_path = os.path.join(tmp, "archive.jsonl")
        sqlite_path = os.path.join(tmp, "archive.sqlite")

        t0 = time.perf_counter()
        with JsonlStore(jsonl_path) as writer:
            writer.ingest(records)
        jsonl_ingest_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        with SqliteStore(sqlite_path) as store:
            store.ingest(records)
        sqlite_ingest_s = time.perf_counter() - t0

        jsonl_s = float("inf")
        jsonl_answers = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            with JsonlStore(jsonl_path) as store:  # the legacy reload
                jsonl_answers = query_session(store)
            jsonl_s = min(jsonl_s, time.perf_counter() - t0)

        sqlite_s = float("inf")
        sqlite_answers = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            with SqliteStore(sqlite_path) as store:
                sqlite_answers = query_session(store)
            sqlite_s = min(sqlite_s, time.perf_counter() - t0)

        bit_identical = jsonl_answers == sqlite_answers
        speedup = jsonl_s / sqlite_s if sqlite_s > 0 else float("inf")

        if not bit_identical:
            failures.append("sqlite answers differ from the JSONL reload")
        if speedup < args.min_speedup:
            failures.append(f"warehouse speedup {speedup:.1f}x below the "
                            f"{args.min_speedup:.1f}x floor")

        print(f"archive: {len(records)} records over {n_runs} runs, "
              f"{len(CAMPAIGNS)} campaigns "
              f"(ingest: jsonl {jsonl_ingest_s * 1e3:.1f} ms, "
              f"sqlite {sqlite_ingest_s * 1e3:.1f} ms)")
        print(f"query session: jsonl reload {jsonl_s * 1e3:.1f} ms, "
              f"sqlite {sqlite_s * 1e3:.1f} ms ({speedup:.1f}x), "
              f"identical={'yes' if bit_identical else 'NO'}")

        if args.json:
            merge_json(args.json, "metrics", {
                "bit_identical": bit_identical,
                "records": len(records),
                "runs": n_runs,
                "jsonl_ms": round(jsonl_s * 1e3, 4),
                "sqlite_ms": round(sqlite_s * 1e3, 4),
                "speedup": round(speedup, 2),
            })
            print(f"wrote 'metrics' section to {args.json}")

    live_s, oracle_s, miner_identical = time_miner(
        miner_table(MINER_RUNS), max(repeats, 5))
    history_live_s, history_oracle_s, history_identical = time_miner(
        miner_table(HISTORY_RUNS, seed=1), 1)
    miner_speedup = oracle_s / live_s
    history_speedup = history_oracle_s / history_live_s
    if not (miner_identical and history_identical):
        failures.append("the miner's forest differs from the recursive oracle")
    if miner_speedup < MIN_MINER_SPEEDUP:
        failures.append(f"miner speedup {miner_speedup:.1f}x below the "
                        f"{MIN_MINER_SPEEDUP:.1f}x floor")
    if history_speedup < 1.0:
        failures.append(f"the full-history forest is slower than the oracle "
                        f"({history_speedup:.2f}x)")
    print(f"miner forest ({MINER_RUNS}x{MINER_OPTIONS} table, "
          f"{MINER_CANDIDATES + MINER_RUNS} candidates): oracle "
          f"{oracle_s * 1e3:.1f} ms, live {live_s * 1e3:.1f} ms "
          f"({miner_speedup:.1f}x), "
          f"identical={'yes' if miner_identical else 'NO'}")
    print(f"full-history forest ({HISTORY_RUNS} runs): oracle "
          f"{history_oracle_s * 1e3:.0f} ms, live {history_live_s * 1e3:.0f} ms "
          f"({history_speedup:.1f}x), "
          f"identical={'yes' if history_identical else 'NO'}")
    if args.json:
        merge_json(args.json, "miner", {
            "bit_identical": miner_identical and history_identical,
            "table": [MINER_RUNS, MINER_OPTIONS],
            "candidates": MINER_CANDIDATES + MINER_RUNS,
            "oracle_ms": round(oracle_s * 1e3, 4),
            "live_ms": round(live_s * 1e3, 4),
            "speedup": round(miner_speedup, 2),
            "history_runs": HISTORY_RUNS,
            "history_oracle_ms": round(history_oracle_s * 1e3, 4),
            "history_live_ms": round(history_live_s * 1e3, 4),
            "history_speedup": round(history_speedup, 2),
        })
        print(f"wrote 'miner' section to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
