"""Gate a benchmark JSON against its committed baseline.

``make bench-trajectory`` runs the STA, place/route and lint-analyzer
benchmarks, which merge their summaries into ``BENCH_sta.json`` /
``BENCH_place_route.json`` / ``BENCH_lint.json``; this script compares
such a file to its committed baseline
(``benchmarks/BENCH_*_baseline.json``) and exits 1 on regression.  The baseline decides which sections are required: any
section present in the baseline must be present — and healthy — in the
current file, so the one script gates both benchmark families.

What counts as a regression is chosen to be machine-independent:

- correctness flags (``bit_identical``, ``qor_identical``) must hold —
  they are deterministic;
- ``work_ratio`` sections are runtime-*proxy* ratios, also
  deterministic: each must stay within ``--proxy-tolerance`` (default
  25%) of the baseline and above its absolute floor (2x for the
  incremental-STA section, 1.3x for the DSE kill-policy section);
- wall-clock ``speedup`` ratios are measured on the same machine in
  the same run, which cancels absolute machine speed but still jitters
  under CI load: each only has to clear its section's absolute floor
  (5x for the vectorized-STA and annealer kernels and the warm lint
  cache, 3x for global routing, the metrics warehouse and the miner's
  forest, 2x for synthesis) and ``--speedup-fraction`` (default 35%) of
  the baseline.

Usage::

    python benchmarks/check_bench_regression.py BENCH_sta.json \
        benchmarks/BENCH_sta_baseline.json
    python benchmarks/check_bench_regression.py BENCH_place_route.json \
        benchmarks/BENCH_place_route_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys

# wall-clock sections: name -> absolute speedup floor
WALL_FLOORS = {
    "vectorized": 5.0,
    "annealer": 5.0,
    "groute": 3.0,
    "synth": 2.0,
    "lint": 5.0,
    "metrics": 3.0,
    "miner": 3.0,
}

# runtime-proxy sections: name -> absolute work_ratio floor.  These are
# deterministic (simulated tool cost, not wall clock): "incremental" is
# timing work avoided by dirty-cone STA, "dse" is router work avoided
# by the online kill policy at unchanged best QoR.
PROXY_FLOORS = {
    "incremental": 2.0,
    "dse": 1.3,
}

#: what a broken qor_identical flag means, per proxy section
_PROXY_QOR_MESSAGES = {
    "incremental": "incremental STA changed the optimizer QoR",
    "dse": "the kill policy changed the campaign's best QoR",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("current", help="freshly generated benchmark json")
    parser.add_argument("baseline", help="committed baseline json")
    parser.add_argument("--proxy-tolerance", type=float, default=0.25,
                        help="allowed fractional drop in work_ratio")
    parser.add_argument("--speedup-fraction", type=float, default=0.35,
                        help="required fraction of the baseline speedup")
    args = parser.parse_args(argv)

    with open(args.current) as fh:
        current = json.load(fh)
    with open(args.baseline) as fh:
        baseline = json.load(fh)

    failures = []

    for section, abs_floor in WALL_FLOORS.items():
        base = baseline.get(section)
        if base is None:
            continue  # this baseline does not track the section
        now = current.get(section)
        if now is None:
            failures.append(f"missing '{section}' section")
            continue
        if not now.get("bit_identical"):
            failures.append(f"{section} kernel is no longer bit-identical")
        floor = max(abs_floor, args.speedup_fraction * base["speedup"])
        if now["speedup"] < floor:
            failures.append(
                f"{section} speedup regressed: {now['speedup']:.1f}x "
                f"< {floor:.1f}x (baseline {base['speedup']:.1f}x)")
        print(f"{section}: {now['speedup']:.1f}x "
              f"(baseline {base['speedup']:.1f}x, floor {floor:.1f}x)")

    for section, abs_floor in PROXY_FLOORS.items():
        base = baseline.get(section)
        if base is None:
            continue
        now = current.get(section)
        if now is None:
            failures.append(f"missing '{section}' section")
            continue
        if not now.get("qor_identical"):
            failures.append(_PROXY_QOR_MESSAGES[section])
        floor = max(abs_floor,
                    (1.0 - args.proxy_tolerance) * base["work_ratio"])
        if now["work_ratio"] < floor:
            failures.append(
                f"{section} work_ratio regressed: "
                f"{now['work_ratio']:.2f}x < {floor:.2f}x "
                f"(baseline {base['work_ratio']:.2f}x)")
        print(f"{section}: {now['work_ratio']:.2f}x less executed "
              f"work (baseline {base['work_ratio']:.2f}x, "
              f"floor {floor:.2f}x)")

    if not failures and not any(
            key in baseline for key in (*WALL_FLOORS, *PROXY_FLOORS)):
        failures.append("baseline has no recognized benchmark sections")

    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK: no regression vs committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
