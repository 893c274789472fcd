"""Command-line interface: ``repro <subcommand>``.

Subcommands wrap the library's main entry points so a downstream user
can drive the substrate and the paper's experiments without writing
Python:

- ``repro flow`` — run the SP&R flow on a named design profile;
- ``repro noise`` — the Fig 3 noise sweep;
- ``repro doomed`` — train and evaluate the doomed-run strategy card;
- ``repro mab`` — the Fig 7 bandit tuning loop;
- ``repro explore`` — GWTW trajectory exploration (Fig 5/6);
- ``repro dse`` — the declarative DSE engine: any registered strategy
  under a budget, with optional online doomed-run killing and a
  surrogate proposer (see ``docs/dse.md``);
- ``repro cost`` — ITRS design-cost projections;
- ``repro metrics summary|query`` — inspect a collected METRICS store
  (JSONL file or sqlite warehouse, format sniffed);
- ``repro metrics ingest|migrate|compact`` — maintain a sqlite metrics
  warehouse: append JSONL campaigns under a campaign id, convert
  existing JSONL files with zero-loss verification, and apply a
  keep-last-N-campaigns retention policy;
- ``repro lint`` — determinism & parallel-safety static analysis
  (``--strict`` in CI; see ``docs/static-analysis.md``).

``mab`` and ``explore`` accept ``--workers N`` (parallel flow
execution), ``--cache-dir`` (persistent result cache), and
``--metrics-out FILE`` (cross-process METRICS collection: every flow
run's step metrics plus per-job executor events land in a JSONL file
that ``repro metrics summary`` and the data miner consume); all print
the executor's stats line (jobs, cache hits, retries, wall time).
``--metrics-db DB`` collects into a sqlite warehouse instead, and
``--campaign ID`` tags every record so multiple sessions accumulate
distinguishable history in one store (see ``docs/metrics.md``).
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional


def _cmd_flow(args) -> int:
    from repro.bench.generators import design_profile
    from repro.eda.flow import FlowOptions, SPRFlow
    from repro.eda.io import write_def, write_verilog

    spec = design_profile(args.design)
    options = FlowOptions(
        target_clock_ghz=args.target,
        utilization=args.utilization,
        synth_effort=args.effort,
    )
    result = SPRFlow().run(spec, options, seed=args.seed)
    print(f"design={spec.name} target={args.target}GHz seed={args.seed}")
    print(f"area={result.area:.1f}um2 power={result.power:.1f}uW "
          f"wns={result.wns:.1f}ps drvs={result.final_drvs} "
          f"achieved={result.achieved_ghz:.3f}GHz "
          f"{'SUCCESS' if result.success else 'FAILED'}")
    if args.verbose:
        print(result.log_text())
    if args.write_verilog or args.write_def:
        # re-materialize the implementation for dumping
        from repro.eda.floorplan import make_floorplan
        from repro.eda.library import make_default_library
        from repro.eda.placement import QuadraticPlacer
        from repro.eda.synthesis import synthesize

        netlist = synthesize(spec, make_default_library(), options.synth_effort, args.seed)
        if args.write_verilog:
            with open(args.write_verilog, "w") as fh:
                fh.write(write_verilog(netlist))
            print(f"wrote {args.write_verilog}")
        if args.write_def:
            floorplan = make_floorplan(netlist, options.utilization)
            placement = QuadraticPlacer().place(netlist, floorplan, args.seed)
            with open(args.write_def, "w") as fh:
                fh.write(write_def(placement))
            print(f"wrote {args.write_def}")
    return 0 if result.success else 1


def _cmd_noise(args) -> int:
    from repro.bench.generators import design_profile
    from repro.core.noise import NoiseCharacterization, noise_sweep

    spec = design_profile(args.design)
    targets = [float(t) for t in args.targets.split(",")]
    sweep = noise_sweep(spec, targets, n_seeds=args.seeds)
    noise = NoiseCharacterization(sweep)
    print(f"{'target':>8} {'area_mean':>10} {'area_std':>9} {'success':>8}")
    for target in sweep.targets:
        print(f"{target:>8.2f} {sweep.areas(target).mean():>10.1f} "
              f"{sweep.areas(target).std(ddof=1):>9.2f} "
              f"{sweep.success_rate(target):>8.2f}")
    print(f"noise growth ratio: {noise.noise_growth_ratio():.2f}", end="")
    if args.seeds >= 8:  # the normality test needs a real sample
        print(f"; gaussian fraction: {noise.gaussian_fraction():.2f}")
    else:
        print(" (>=8 seeds needed for the Gaussianity test)")
    return 0


def _cmd_doomed(args) -> int:
    from repro.bench.corpus import RouterLogCorpus
    from repro.core.doomed import MDPCardLearner, evaluate_policy

    train = RouterLogCorpus.artificial(n=args.train, seed=args.seed)
    test = RouterLogCorpus.cpu_floorplans(n=args.test, seed=args.seed + 1)
    card = MDPCardLearner().fit(train)
    print(f"train: {len(train)} logs (success rate {train.success_rate:.2f}); "
          f"test: {len(test)} logs (success rate {test.success_rate:.2f})")
    for k in (1, 2, 3):
        print("  " + evaluate_policy(card, test, k).summary_row())
    return 0


def _make_executor(args):
    from repro.core.parallel import FlowExecutor

    collector = None
    metrics_out = getattr(args, "metrics_out", None)
    metrics_db = getattr(args, "metrics_db", None)
    if metrics_out and metrics_db:
        print("pass --metrics-out (JSONL) or --metrics-db (warehouse), "
              "not both", file=sys.stderr)
        raise SystemExit(2)
    if metrics_out or metrics_db:
        from repro.metrics import MetricsCollector, MetricsServer

        campaign = getattr(args, "campaign", None)
        if metrics_db:
            from repro.metrics import SqliteStore

            server = MetricsServer(store=SqliteStore(metrics_db),
                                   campaign=campaign)
        else:
            server = MetricsServer(persist_path=metrics_out,
                                   campaign=campaign)
        collector = MetricsCollector(server, cross_process=args.workers > 1)
    return FlowExecutor(n_workers=args.workers, cache=True,
                        cache_dir=args.cache_dir, collector=collector,
                        stage_cache=getattr(args, "stage_cache", False))


def _finish_metrics(executor, args) -> None:
    """Drain the executor's collector and report what was persisted."""
    if executor.collector is None:
        return
    executor.collector.stop()
    server = executor.collector.server
    dest = getattr(args, "metrics_db", None) or args.metrics_out
    print(f"metrics: {len(server)} records over {len(server.runs())} runs "
          f"-> {dest}")


def _close_metrics(executor) -> None:
    """Release collection resources — runs on error paths too, so the
    drain thread always stops and persistence handles never leak."""
    if executor.collector is None:
        return
    executor.collector.stop()  # idempotent
    executor.collector.server.close()


def _cmd_mab(args) -> int:
    from repro.bench.generators import design_profile
    from repro.core.bandit import FlowArmEnvironment, ThompsonSampling
    from repro.dse import DSEEngine

    spec = design_profile(args.design)
    frequencies = [float(f) for f in args.arms.split(",")]
    env = FlowArmEnvironment(spec, frequencies, seed=args.seed,
                             max_area=args.max_area, max_power=args.max_power)
    policy = ThompsonSampling(env.n_arms, seed=args.seed + 1)
    with _make_executor(args) as executor:
        try:
            result = DSEEngine(
                strategy="bandit", executor=executor,
                params={"n_iterations": args.iterations,
                        "n_concurrent": args.concurrent},
            ).run((policy, env), seed=args.seed)
            print(f"{result.n_runs - result.n_failed}/{result.n_runs} "
                  f"successful runs")
            best = int(policy.posterior_mean().argmax())
            print(f"recommended target: {frequencies[best]:.2f} GHz")
            print(f"executor: {executor.stats.summary()}")
            _finish_metrics(executor, args)
        finally:
            _close_metrics(executor)
    return 0


def _cmd_explore(args) -> int:
    from repro.bench.generators import design_profile
    from repro.dse import DSEEngine

    spec = design_profile(args.design)
    with _make_executor(args) as executor:
        try:
            result = DSEEngine(
                strategy="explorer", executor=executor,
                params={"n_concurrent": args.concurrent,
                        "n_rounds": args.rounds},
            ).run(spec, seed=args.seed)
            print(f"{result.n_runs} runs over {args.rounds} rounds "
                  f"({result.n_pruned} pruned, {result.n_failed} failed), "
                  f"best score {result.best_score:.4f}")
            if result.best_result is not None:
                best = result.best_result
                print(f"best: target={best.options.target_clock_ghz:.2f}GHz "
                      f"util={best.options.utilization:.2f} seed={best.seed} "
                      f"area={best.area:.1f}um2 wns={best.wns:.1f}ps "
                      f"{'SUCCESS' if best.success else 'FAILED'}")
            print(f"executor: {executor.stats.summary()}")
            _finish_metrics(executor, args)
        finally:
            _close_metrics(executor)
    return 0 if result.best_result is not None else 1


def _cmd_dse(args) -> int:
    from repro.bench.generators import design_profile
    from repro.dse import Budget, DSEEngine, SurrogateProposer, train_kill_policy

    budget = Budget(max_runs=args.budget_runs,
                    max_runtime_proxy=args.budget_proxy)
    if args.strategy in ("gwtw", "independent", "multistart", "random"):
        # landscape strategies search netlist bisection, not flow options
        from repro.core.search.landscape import BisectionProblem
        from repro.eda.library import make_default_library
        from repro.eda.synthesis import synthesize

        spec = design_profile(args.design)
        netlist = synthesize(spec, make_default_library(), 0.5, args.seed)
        problem = BisectionProblem.from_netlist(netlist)
        engine = DSEEngine(strategy=args.strategy, budget=budget)
        result = engine.run(problem, seed=args.seed)
        print(f"strategy={args.strategy} design={spec.name} "
              f"({problem.n_nodes} nodes): best cut cost "
              f"{result.best_score:.1f} after {result.n_runs} searches")
        return 0

    kill_policy = None
    if args.kill != "none":
        kill_policy = train_kill_policy(args.kill, seed=args.seed,
                                        consecutive=args.kill_consecutive)
    surrogate = None
    if args.surrogate != "none":
        surrogate = SurrogateProposer(model=args.surrogate,
                                      random_state=args.seed)
    params = {"n_concurrent": args.concurrent}
    if args.strategy == "explorer":
        params["n_rounds"] = args.rounds
    elif args.strategy == "bandit":
        params["n_iterations"] = args.rounds
    elif args.strategy == "sweep":
        params["limit"] = args.limit
    spec = design_profile(args.design)
    with _make_executor(args) as executor:
        try:
            engine = DSEEngine(
                strategy=args.strategy, objective=args.objective, budget=budget,
                executor=executor, kill_policy=kill_policy, surrogate=surrogate,
                params=params,
            )
            result = engine.run(spec, seed=args.seed)
            best = ("n/a" if not math.isfinite(result.best_score)
                    else f"{result.best_score:.4f}")
            print(f"strategy={args.strategy} objective={args.objective}: "
                  f"{result.n_runs} runs ({result.n_failed} failed, "
                  f"{result.n_killed} killed), best {best}")
            if result.n_killed:
                print(f"kill policy ({args.kill}) saved "
                      f"{result.kill_proxy_saved:.0f} proxy units")
            if result.surrogate_fit is not None:
                print(f"surrogate ({args.surrogate}) training fit: "
                      f"{result.surrogate_fit:.3f}")
            if result.pareto:
                print(f"pareto front: {len(result.pareto)} non-dominated runs")
            if result.best_result is not None:
                top = result.best_result
                print(f"best: target={top.options.target_clock_ghz:.2f}GHz "
                      f"util={top.options.utilization:.2f} seed={top.seed} "
                      f"area={top.area:.1f}um2 wns={top.wns:.1f}ps "
                      f"{'SUCCESS' if top.success else 'FAILED'}")
            print(f"executor: {executor.stats.summary()}")
            _finish_metrics(executor, args)
        finally:
            _close_metrics(executor)
    return 0 if result.n_runs > 0 and result.n_failed < result.n_runs else 1


def _cmd_metrics_summary(args) -> int:
    from repro.metrics import DataMiner, MetricsServer, open_store

    campaign = getattr(args, "campaign", None)
    with MetricsServer(store=open_store(args.path)) as server:
        if len(server) == 0:
            print(f"no records in {args.path}")
            return 1
        records = server.query(design=args.design, campaign=campaign)
        run_ids = server.runs(args.design, campaign=campaign)
        designs = sorted({r.design for r in records})
        print(f"{len(records)} records over {len(run_ids)} runs, "
              f"designs: {', '.join(designs)}")
        campaigns = server.campaigns()
        if campaigns:
            print(f"campaigns: {', '.join(campaigns)}")
        if server.skipped_lines:
            print(f"({server.skipped_lines} corrupt line(s) skipped at load)")
        if server.null_values:
            print(f"({server.null_values} null value(s) ignored at load)")
        by_metric = {}
        dropped = 0
        for record in records:
            if not math.isfinite(record.value):
                dropped += 1  # sentinel, not a measurement: keep stats finite
                continue
            by_metric.setdefault(record.metric, []).append(record.value)
        if dropped:
            print(f"({dropped} non-finite value(s) excluded from statistics)")
        print(f"{'metric':<24} {'count':>6} {'mean':>12} {'min':>12} {'max':>12}")
        for metric in sorted(by_metric):
            values = by_metric[metric]
            print(f"{metric:<24} {len(values):>6} {sum(values)/len(values):>12.4f} "
                  f"{min(values):>12.4f} {max(values):>12.4f}")
        sta_full = sum(by_metric.get("sta.full", []))
        sta_incr = sum(by_metric.get("sta.incremental.updates", []))
        if sta_full or sta_incr:
            saved = sum(by_metric.get("sta.incremental.proxy_saved", []))
            nodes = sum(by_metric.get("sta.incremental.nodes", []))
            print(f"timing: {sta_incr:.0f} incremental updates vs {sta_full:.0f} "
                  f"full propagations ({nodes:.0f} nodes re-propagated, "
                  f"{saved:.0f} work units saved)")
        kills = sum(by_metric.get("exec.killed.run", []))
        if kills:
            kill_saved = sum(by_metric.get("exec.killed.proxy_saved", []))
            print(f"kills: {kills:.0f} runs terminated early by the kill policy "
                  f"({kill_saved:.0f} work units saved)")
        if args.recommend:
            try:
                rec = DataMiner(server, seed=0).recommend_options(
                    objective=args.recommend, design=args.design,
                    campaign=campaign,
                )
            except (ValueError, KeyError) as exc:
                print(f"cannot mine a recommendation: {exc}")
                return 1
            settings = " ".join(f"{k}={v:.3f}" for k, v in rec.options.items())
            print(f"recommendation ({args.recommend}, r2={rec.model_r2:.2f}, "
                  f"predicted {rec.predicted_objective:.2f}): {settings}")
    return 0


def _emit_warehouse_op(store, values) -> None:
    """Record a maintenance operation's bookkeeping in the warehouse
    itself, so ingest/migration/retention history stays queryable."""
    from repro.metrics import MetricsServer, Transmitter

    run_id = f"warehouse-op-{store.ingest_count}"
    with Transmitter(MetricsServer(store=store), "warehouse", run_id,
                     tool="warehouse") as tx:
        for name, value in values:
            tx.send(name, float(value))


def _cmd_metrics_ingest(args) -> int:
    from repro.metrics import SqliteStore

    with SqliteStore(args.db) as store:
        report = store.receive_jsonl(args.path, campaign=args.campaign)
        _emit_warehouse_op(store, [
            ("warehouse.ingest.records", report.records),
            ("warehouse.ingest.skipped", report.skipped_lines),
        ])
        tag = f" under campaign {args.campaign!r}" if args.campaign else ""
        print(f"ingested {report.records} records from {args.path} "
              f"into {args.db}{tag} ({report.batches} transactions, "
              f"{report.null_values} null values, "
              f"{report.skipped_lines} corrupt lines skipped)")
    return 0


def _cmd_metrics_migrate(args) -> int:
    from repro.metrics import JsonlStore, SqliteStore, migrate_jsonl

    with SqliteStore(args.db) as store:
        report = migrate_jsonl(args.path, store)
        # zero-loss verification: reload the source the hardened JSONL
        # way and compare record count plus every per-run vector
        with JsonlStore(args.path) as source:
            failures = []
            if len(source) != report.records:
                failures.append(
                    f"record count mismatch: source has {len(source)}, "
                    f"migrated {report.records}")
            for run_id in source.runs():
                if source.run_vector(run_id) != store.run_vector(run_id):
                    failures.append(f"run vector mismatch for {run_id}")
        _emit_warehouse_op(store, [
            ("warehouse.migrate.records", report.records),
            ("warehouse.migrate.skipped", report.skipped_lines),
        ])
        print(f"migrated {report.records} records from {args.path} "
              f"into {args.db} ({report.null_values} null values, "
              f"{report.skipped_lines} corrupt lines skipped)")
        if failures:
            for failure in failures:
                print(f"VERIFY FAIL: {failure}", file=sys.stderr)
            return 1
        print(f"verified: {len(source.runs())} run vectors identical "
              f"between source and warehouse")
    return 0


def _cmd_metrics_query(args) -> int:
    from repro.metrics import MetricsServer, open_store

    with MetricsServer(store=open_store(args.path)) as server:
        if args.metric or args.run:
            records = server.query(design=args.design, metric=args.metric,
                                   run_id=args.run, campaign=args.campaign,
                                   since=args.since)
            for record in records[:args.limit]:
                campaign = (record.attributes or {}).get("campaign", "-")
                print(f"{record.design} {record.run_id} {record.tool} "
                      f"{record.metric}={record.value:g} "
                      f"seq={record.sequence} campaign={campaign}")
            if len(records) > args.limit:
                print(f"... {len(records) - args.limit} more "
                      f"(raise --limit to see them)")
            return 0 if records else 1
        run_ids = server.runs(args.design, campaign=args.campaign,
                              since=args.since)
        for run_id in run_ids[:args.limit]:
            vector = server.run_vector(run_id)
            design = next(iter(
                r.design for r in server.query(run_id=run_id)), "?")
            print(f"{run_id} design={design} metrics={len(vector)}")
        if len(run_ids) > args.limit:
            print(f"... {len(run_ids) - args.limit} more "
                  f"(raise --limit to see them)")
        return 0 if run_ids else 1


def _cmd_metrics_compact(args) -> int:
    from repro.metrics import SqliteStore

    with SqliteStore(args.db) as store:
        before = store.campaigns()
        removed = store.compact(args.keep_last, vacuum=not args.no_vacuum)
        kept = store.campaigns()
        _emit_warehouse_op(store, [
            ("warehouse.compact.removed", removed),
            ("warehouse.compact.campaigns_kept", len(kept)),
        ])
        print(f"compacted {args.db}: removed {removed} records from "
              f"{len(before) - len(kept)} campaign(s), kept "
              f"{', '.join(kept) if kept else 'none'}")
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        LintConfig,
        Severity,
        all_rules,
        format_human,
        format_json,
        lint_paths,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.name:<28} {str(rule.severity):<8} "
                  f"{rule.description}")
        return 0
    config = LintConfig(
        select=args.select.split(",") if args.select else None,
        ignore=args.ignore.split(",") if args.ignore else (),
        fail_on=Severity.parse(args.fail_on),
        strict=args.strict,
        use_cache=not args.no_cache,
    )
    try:
        report = lint_paths(args.paths, config)
    except (FileNotFoundError, ValueError) as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(format_json(report))
    else:
        print(format_human(report, verbose=args.verbose))
    return 1 if config.fails(report) else 0


def _cmd_cache_stats(args) -> int:
    import json
    import os

    from repro.core.parallel import CACHE_SCHEMA

    if not os.path.isdir(args.dir):
        print(f"cache stats: no such directory: {args.dir}", file=sys.stderr)
        return 1
    entries = 0
    corrupt = 0
    by_schema = {}
    for name in sorted(os.listdir(args.dir)):
        if not name.endswith(".json") or name == "cache-stats.json":
            continue
        try:
            with open(os.path.join(args.dir, name)) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            data = None
        if not isinstance(data, dict):
            corrupt += 1
            continue
        entries += 1
        version = data.get("schema", 1)  # pre-versioning entries are v1
        by_schema[version] = by_schema.get(version, 0) + 1
    print(f"{args.dir}: {entries} disk entries (current schema {CACHE_SCHEMA})")
    for version in sorted(by_schema):
        usable = "usable" if version == CACHE_SCHEMA else "stale -> treated as misses"
        print(f"  schema {version}: {by_schema[version]} entries ({usable})")
    if corrupt:
        print(f"  {corrupt} unreadable entries (treated as misses)")

    stats_path = os.path.join(args.dir, "cache-stats.json")
    try:
        with open(stats_path) as fh:
            stats = json.load(fh)
    except (OSError, ValueError):
        stats = None
    if not isinstance(stats, dict):
        print("no cache-stats.json (no campaign has closed an executor "
              "over this directory yet)")
        return 0
    print(f"accumulated campaign stats ({stats_path}):")
    print(f"  jobs: {stats.get('jobs_submitted', 0)} submitted, "
          f"{stats.get('jobs_run', 0)} run, {stats.get('deduped', 0)} deduped")
    print(f"  whole-run hits: memory={stats.get('cache_hits_memory', 0)} "
          f"disk={stats.get('cache_hits_disk', 0)}")
    print(f"  stage prefix:   hits={stats.get('stage_hits', 0)} "
          f"misses={stats.get('stage_misses', 0)}")
    hits_by_stage = stats.get("stage_hits_by_stage", {}) or {}
    misses_by_stage = stats.get("stage_misses_by_stage", {}) or {}
    for stage in sorted(set(hits_by_stage) | set(misses_by_stage)):
        print(f"    {stage:<16} hits={hits_by_stage.get(stage, 0):<6} "
              f"misses={misses_by_stage.get(stage, 0)}")
    total = stats.get("runtime_proxy_total", 0.0)
    executed = stats.get("runtime_proxy_executed", 0.0)
    print(f"  work: delivered={total:.0f} executed={executed:.0f} "
          f"saved={total - executed:.0f} units")
    return 0


def _cmd_cost(args) -> int:
    from repro.core.costmodel import DesignCostModel

    model = DesignCostModel()
    cost = model.design_cost(args.year, dt_freeze_year=args.freeze)
    label = f" (DT frozen at {args.freeze})" if args.freeze else ""
    print(f"SOC-CP design cost in {args.year}{label}: ${cost / 1e6:,.1f}M")
    print(f"engineer-months: {model.engineer_months(args.year, args.freeze):,.0f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Kahng DAC-2018 reproduction: simulated SP&R flow + ML-for-EDA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    flow = sub.add_parser("flow", help="run the SP&R flow on a design profile")
    flow.add_argument("--design", default="pulpino")
    flow.add_argument("--target", type=float, default=0.7, help="GHz")
    flow.add_argument("--utilization", type=float, default=0.7)
    flow.add_argument("--effort", type=float, default=0.5)
    flow.add_argument("--seed", type=int, default=0)
    flow.add_argument("--verbose", action="store_true")
    flow.add_argument("--write-verilog", metavar="FILE")
    flow.add_argument("--write-def", metavar="FILE")
    flow.set_defaults(func=_cmd_flow)

    noise = sub.add_parser("noise", help="Fig 3 noise sweep")
    noise.add_argument("--design", default="pulpino")
    noise.add_argument("--targets", default="0.5,0.65,0.78,0.9")
    noise.add_argument("--seeds", type=int, default=10)
    noise.set_defaults(func=_cmd_noise)

    doomed = sub.add_parser("doomed", help="train/evaluate the strategy card")
    doomed.add_argument("--train", type=int, default=600)
    doomed.add_argument("--test", type=int, default=400)
    doomed.add_argument("--seed", type=int, default=0)
    doomed.set_defaults(func=_cmd_doomed)

    mab = sub.add_parser("mab", help="Fig 7 bandit flow tuning")
    mab.add_argument("--design", default="pulpino")
    mab.add_argument("--arms", default="0.5,0.6,0.7,0.8,0.9")
    mab.add_argument("--iterations", type=int, default=15)
    mab.add_argument("--concurrent", type=int, default=5)
    mab.add_argument("--max-area", type=float, default=None)
    mab.add_argument("--max-power", type=float, default=None)
    mab.add_argument("--seed", type=int, default=0)
    mab.add_argument("--workers", type=int, default=1,
                     help="parallel flow workers (1 = serial)")
    mab.add_argument("--cache-dir", default=None,
                     help="directory for the on-disk result-cache tier")
    mab.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="collect METRICS records from every run into this JSONL file")
    mab.add_argument("--metrics-db", default=None, metavar="DB",
                     help="collect METRICS records into this sqlite warehouse "
                          "(cross-campaign history; mutually exclusive with "
                          "--metrics-out)")
    mab.add_argument("--campaign", default=None,
                     help="campaign id stamped onto every collected record")
    mab.add_argument("--stage-cache", action="store_true",
                     help="enable the stage-prefix cache (resume flow jobs "
                          "from the deepest cached pipeline prefix)")
    mab.set_defaults(func=_cmd_mab)

    explore = sub.add_parser(
        "explore", help="GWTW trajectory exploration over the flow-option tree"
    )
    explore.add_argument("--design", default="pulpino")
    explore.add_argument("--rounds", type=int, default=4)
    explore.add_argument("--concurrent", type=int, default=5)
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--workers", type=int, default=1,
                         help="parallel flow workers (1 = serial)")
    explore.add_argument("--cache-dir", default=None,
                         help="directory for the on-disk result-cache tier")
    explore.add_argument("--metrics-out", default=None, metavar="FILE",
                         help="collect METRICS records from every run into this JSONL file")
    explore.add_argument("--metrics-db", default=None, metavar="DB",
                         help="collect METRICS records into this sqlite "
                              "warehouse (cross-campaign history; mutually "
                              "exclusive with --metrics-out)")
    explore.add_argument("--campaign", default=None,
                         help="campaign id stamped onto every collected record")
    explore.add_argument("--stage-cache", action="store_true",
                         help="enable the stage-prefix cache (resume flow jobs "
                              "from the deepest cached pipeline prefix)")
    explore.set_defaults(func=_cmd_explore)

    dse = sub.add_parser(
        "dse", help="declarative design-space exploration (any strategy, "
                    "budgets, kill policies, surrogate proposals)"
    )
    dse.add_argument("--design", default="pulpino")
    dse.add_argument("--strategy", default="explorer",
                     choices=["explorer", "bandit", "sweep", "gwtw",
                              "independent", "multistart", "random"],
                     help="registered search strategy to run")
    dse.add_argument("--objective", default="score",
                     choices=["score", "area", "power", "wns",
                              "frequency", "pareto"],
                     help="objective the campaign optimizes")
    dse.add_argument("--rounds", type=int, default=4,
                     help="search rounds (explorer) / iterations (bandit)")
    dse.add_argument("--concurrent", type=int, default=5,
                     help="runs launched per round")
    dse.add_argument("--limit", type=int, default=64,
                     help="enumeration cap for the sweep strategy")
    dse.add_argument("--budget-runs", type=int, default=None,
                     help="stop after this many launched runs")
    dse.add_argument("--budget-proxy", type=float, default=None,
                     help="stop after this much executed runtime proxy")
    dse.add_argument("--kill", default="none",
                     choices=["none", "mdp", "hmm"],
                     help="online doomed-run kill policy")
    dse.add_argument("--kill-consecutive", type=int, default=3,
                     help="consecutive STOP votes before a run is killed")
    dse.add_argument("--surrogate", default="none",
                     choices=["none", "forest", "gbm"],
                     help="surrogate model proposing one candidate per round")
    dse.add_argument("--seed", type=int, default=0)
    dse.add_argument("--workers", type=int, default=1,
                     help="parallel flow workers (1 = serial)")
    dse.add_argument("--cache-dir", default=None,
                     help="directory for the on-disk result-cache tier")
    dse.add_argument("--metrics-out", default=None, metavar="FILE",
                     help="collect METRICS records from every run into this JSONL file")
    dse.add_argument("--metrics-db", default=None, metavar="DB",
                     help="collect METRICS records into this sqlite warehouse "
                          "(cross-campaign history; mutually exclusive with "
                          "--metrics-out)")
    dse.add_argument("--campaign", default=None,
                     help="campaign id stamped onto every collected record")
    dse.add_argument("--stage-cache", action="store_true",
                     help="enable the stage-prefix cache (resume flow jobs "
                          "from the deepest cached pipeline prefix)")
    dse.set_defaults(func=_cmd_dse)

    metrics = sub.add_parser("metrics", help="inspect collected METRICS data")
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)
    summary = metrics_sub.add_parser(
        "summary", help="summarize a METRICS store (runs, metrics, miner); "
                        "accepts JSONL files and sqlite warehouses"
    )
    summary.add_argument("--in", dest="path", required=True, metavar="FILE",
                         help="JSONL file or sqlite warehouse (format sniffed)")
    summary.add_argument("--design", default=None,
                         help="restrict to one design")
    summary.add_argument("--campaign", default=None,
                         help="restrict to one campaign id")
    summary.add_argument("--recommend", default=None, metavar="OBJECTIVE",
                         help="also mine an option recommendation for this objective")
    summary.set_defaults(func=_cmd_metrics_summary)

    ingest = metrics_sub.add_parser(
        "ingest", help="append a JSONL metrics file into a sqlite warehouse, "
                       "optionally stamping a campaign id"
    )
    ingest.add_argument("--db", required=True, metavar="DB",
                        help="sqlite warehouse (created if missing)")
    ingest.add_argument("--in", dest="path", required=True, metavar="FILE",
                        help="JSONL source written by --metrics-out")
    ingest.add_argument("--campaign", default=None,
                        help="campaign id stamped onto untagged records")
    ingest.set_defaults(func=_cmd_metrics_ingest)

    migrate = metrics_sub.add_parser(
        "migrate", help="convert a JSONL metrics file into a sqlite "
                        "warehouse, verifying zero record loss"
    )
    migrate.add_argument("--in", dest="path", required=True, metavar="FILE",
                         help="JSONL source written by --metrics-out")
    migrate.add_argument("--db", required=True, metavar="DB",
                         help="sqlite warehouse (created if missing)")
    migrate.set_defaults(func=_cmd_metrics_migrate)

    query = metrics_sub.add_parser(
        "query", help="list runs or records from a metrics store"
    )
    query.add_argument("--in", dest="path", required=True, metavar="FILE",
                       help="JSONL file or sqlite warehouse (format sniffed)")
    query.add_argument("--design", default=None,
                       help="restrict to one design")
    query.add_argument("--campaign", default=None,
                       help="restrict to one campaign id")
    query.add_argument("--metric", default=None,
                       help="print matching records of this metric")
    query.add_argument("--run", default=None, metavar="RUN_ID",
                       help="print records of one run")
    query.add_argument("--since", type=int, default=None, metavar="N",
                       help="only runs first seen at/after this ingest index")
    query.add_argument("--limit", type=int, default=50,
                       help="maximum rows printed (default 50)")
    query.set_defaults(func=_cmd_metrics_query)

    compact = metrics_sub.add_parser(
        "compact", help="retention: drop all but the most recent campaigns "
                        "from a sqlite warehouse"
    )
    compact.add_argument("--db", required=True, metavar="DB",
                         help="sqlite warehouse to compact")
    compact.add_argument("--keep-last", type=int, required=True, metavar="N",
                         help="number of most-recent campaigns to keep")
    compact.add_argument("--no-vacuum", action="store_true",
                         help="skip the VACUUM after deletion")
    compact.set_defaults(func=_cmd_metrics_compact)

    cache = sub.add_parser("cache", help="inspect flow-result cache directories")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry counts, schema versions, and per-stage hit counters"
    )
    cache_stats.add_argument("--dir", required=True, metavar="DIR",
                             help="cache directory (the executor's cache_dir)")
    cache_stats.set_defaults(func=_cmd_cache_stats)

    lint = sub.add_parser(
        "lint", help="determinism & parallel-safety static analysis"
    )
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files/directories to analyze (default: src/repro)")
    lint.add_argument("--format", choices=["human", "json"], default="human",
                      help="output format")
    lint.add_argument("--strict", action="store_true",
                      help="exit nonzero on any finding, regardless of severity")
    lint.add_argument("--fail-on", default="error",
                      choices=["info", "warning", "error"],
                      help="lowest severity that fails the run (default: error)")
    lint.add_argument("--select", default=None, metavar="IDS",
                      help="comma-separated rule ids to run (default: all)")
    lint.add_argument("--ignore", default=None, metavar="IDS",
                      help="comma-separated rule ids to skip")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also print suppressed findings")
    lint.add_argument("--no-cache", action="store_true",
                      help="ignore and do not write the incremental cache "
                           "(.repro-lint-cache.json)")
    lint.set_defaults(func=_cmd_lint)

    cost = sub.add_parser("cost", help="ITRS design-cost projection")
    cost.add_argument("--year", type=int, default=2028)
    cost.add_argument("--freeze", type=int, default=None,
                      help="drop DT innovations after this year")
    cost.set_defaults(func=_cmd_cost)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
