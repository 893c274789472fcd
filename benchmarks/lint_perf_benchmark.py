"""Lint analyzer benchmark: cold vs warm ``repro lint``.

The analyzer keeps a content-hash incremental cache
(``.repro-lint-cache.json``): a warm run re-parses nothing, rebuilds
the project context from cached per-file summaries, and must produce a
report **identical** to the cold run (the cross-file rules consume
summaries on both paths, so this is identity by construction — the
benchmark proves it stays that way).

Checks (exit code 1 on failure):

- warm findings, suppressed findings and project-graph stats are
  identical to the cold run's;
- the warm run hits the cache for every file (zero misses);
- warm is >= 5x faster than cold (the real margin is far larger — a
  warm run skips parsing and the per-module rule pack entirely).

The cache file is written to a temporary directory; the benchmark
never touches the repo's own cache.  Timings are best-of ``--repeats``
to shrug off CI load spikes.

``--json PATH`` merges a machine-readable summary into ``PATH`` under
the ``"lint"`` key (see ``make bench-trajectory``); ``--smoke``
reduces repetitions for CI while keeping every assertion.

Usage::

    PYTHONPATH=src python benchmarks/lint_perf_benchmark.py
    PYTHONPATH=src python benchmarks/lint_perf_benchmark.py \
        --smoke --json BENCH_lint.json
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from vectorized_sta_benchmark import merge_json  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def report_key(report):
    """Everything that must be identical between cold and warm."""
    stats = {k: v for k, v in (report.project_stats or {}).items()
             if k != "cache"}
    return (
        [(f.path, f.line, f.col, f.rule_id, f.message)
         for f in report.findings],
        [(f.path, f.line, f.col, f.rule_id, f.message)
         for f in report.suppressed],
        report.n_files,
        stats,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--paths", nargs="*",
                        default=[os.path.join(REPO_ROOT, "src", "repro")],
                        help="tree to lint (default: src/repro)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repetitions (best-of)")
    parser.add_argument("--min-speedup", type=float, default=5.0,
                        help="required warm/cold speedup")
    parser.add_argument("--smoke", action="store_true",
                        help="fewer repetitions (CI); same assertions")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="merge a 'lint' summary section into PATH")
    args = parser.parse_args(argv)
    repeats = 2 if args.smoke else args.repeats

    from repro.analysis import LintConfig, lint_paths

    failures = []
    with tempfile.TemporaryDirectory(prefix="lint-bench-") as tmp:
        cache_path = os.path.join(tmp, "lint-cache.json")
        config = LintConfig(strict=True, project_root=REPO_ROOT,
                            cache_path=cache_path)

        cold_s = float("inf")
        cold = None
        for _ in range(repeats):
            if os.path.exists(cache_path):
                os.unlink(cache_path)
            t0 = time.perf_counter()
            cold = lint_paths(args.paths, config)
            cold_s = min(cold_s, time.perf_counter() - t0)
        # one priming run wrote the cache above; now measure warm
        warm_s = float("inf")
        warm = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            warm = lint_paths(args.paths, config)
            warm_s = min(warm_s, time.perf_counter() - t0)

        cache = warm.project_stats["cache"]
        bit_identical = report_key(cold) == report_key(warm)
        speedup = cold_s / warm_s if warm_s > 0 else float("inf")

        if not bit_identical:
            failures.append("warm report differs from cold report")
        if cache["misses"] != 0:
            failures.append(f"warm run missed the cache "
                            f"{cache['misses']} time(s)")
        if speedup < args.min_speedup:
            failures.append(f"warm speedup {speedup:.1f}x below the "
                            f"{args.min_speedup:.1f}x floor")

        n_files = warm.n_files
        print(f"lint over {n_files} files: "
              f"cold {cold_s * 1e3:.1f} ms, warm {warm_s * 1e3:.1f} ms "
              f"({speedup:.1f}x), warm cache {cache['hits']} hit(s) / "
              f"{cache['misses']} miss(es), "
              f"identical={'yes' if bit_identical else 'NO'}")

        if args.json:
            merge_json(args.json, "lint", {
                "bit_identical": bit_identical,
                "files": n_files,
                "findings": len(warm.findings),
                "cold_ms": round(cold_s * 1e3, 4),
                "warm_ms": round(warm_s * 1e3, 4),
                "speedup": round(speedup, 2),
            })
            print(f"wrote 'lint' section to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
