"""Run-to-run spread of every end-to-end metric of the e2e benchmark.

Runs the benchmark's own command, ``run.py --workload W --seed S``, once
per seed and workload, reversing the workload order every other seed,
and writes per workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the minimum and the
maximum, with the quartile distance and the range as shares of the
median, plus each run's op count.  Each share is set against the
metric's bound in ``BENCHMARK.json``: the quartile distance should stay
under a third of the bound, and no bound may be narrower than the range.
The same statistics of the unscaled host-time metrics (``host_spread``)
show what the host-speed scaling of ``hostspeed.py`` removes.

Usage (from the repository root)::

    python benchmarks/e2e/spread.py --runs 10 --out benchmarks/e2e/spread.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".e2e_work"  # scratch space shared with run.py


def summarize(values, bound=None):
    q1, median, q3 = statistics.quantiles(values, n=4)
    out = {
        "median": median, "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
        "iqr_share": (q3 - q1) / median,
        "range_share": (max(values) - min(values)) / median,
        "values": values,
    }
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload (>= 5)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    host = {w: {m: [] for m in bounds} for w in workloads}
    attempted = {w: [] for w in workloads}
    WORK.mkdir(exist_ok=True)
    fd, details = tempfile.mkstemp(suffix=".json", dir=WORK)
    os.close(fd)
    try:
        for i in range(args.runs):
            seed = args.first_seed + i
            for workload in (workloads if i % 2 == 0 else workloads[::-1]):
                cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0", "--details", details]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    print(f"{workload} seed {seed}: exit code {proc.returncode}")
                    return 1
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"]:
                    print(f"{workload} seed {seed}: outputs not correct")
                    return 1
                with open(details) as fh:
                    host_metrics = json.load(fh)[workload]["host_metrics"]
                for name in bounds:
                    values[workload][name].append(result["metrics"][name]["value"])
                    host[workload][name].append(host_metrics[name])
                attempted[workload].append(result["attempted"])
                print(f"seed {seed} {workload}: ops={result['attempted']}, " + ", ".join(
                    f"{name}={result['metrics'][name]['value']:.4g}" for name in bounds),
                    flush=True)
    finally:
        os.unlink(details)
        try:
            WORK.rmdir()
        except OSError:
            pass  # a benchmark run still uses it

    summary = {w: {m: summarize(v, bounds[m]) for m, v in per.items()}
               for w, per in values.items()}
    host_summary = {w: {m: summarize(v) for m, v in per.items()}
                    for w, per in host.items()}
    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'iqr':>7} "
          f"{'range':>7} {'bound':>6} {'host iqr':>9}")
    for workload, per in summary.items():
        for name, s in per.items():
            flag = ""
            if name != "setup_s" and s["iqr_share"] > s["bound"] / 3:
                flag = "  iqr over a third of the bound"
            if s["range_share"] > s["bound"]:
                flag += "  range over the bound"
            print(f"{workload:<16} {name:<16} {s['median']:>12.4g} "
                  f"{s['iqr_share']:>7.2%} {s['range_share']:>7.2%} "
                  f"{s['bound']:>6.0%} {host_summary[workload][name]['iqr_share']:>9.2%}"
                  f"{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "runs": args.runs,
                       "first_seed": args.first_seed, "attempted": attempted,
                       "spread": summary, "host_spread": host_summary},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
