"""Doomed-run prediction as a live flow guard (Sec 3.3, Figs 9-10).

Trains the MDP strategy card on artificial-layout router logs, prints
the card, then deploys it as a stop hook inside the SP&R flow on a
hopelessly congested design: the guarded flow terminates the detailed
router after a few iterations instead of burning the full budget.

Usage::

    python examples/doomed_run_guard.py
"""

from repro.bench import RouterLogCorpus, pulpino_profile
from repro.core.doomed import GO, KillPolicy, MDPCardLearner, evaluate_policy
from repro.eda import FlowOptions, SPRFlow


def main() -> None:
    print("generating 600 training logfiles (artificial layouts)...")
    train = RouterLogCorpus.artificial(n=600, seed=10)
    print(f"  success rate: {train.success_rate:.2f}")

    card = MDPCardLearner().fit(train)
    counts = card.counts()
    print(f"\nstrategy card: {counts['go']} GO / {counts['stop']} STOP states "
          f"({counts['visited']} visited)")
    grid = card.as_grid()
    space = card.space
    print("     drv-bin " + "".join(f"{vb:>3}" for vb in range(space.n_violation_bins)))
    for sb in range(space.max_up, -space.max_down - 1, -2):
        row = "".join(
            "  G" if grid[vb, sb + space.max_down] == GO else "  S"
            for vb in range(space.n_violation_bins)
        )
        print(f"slope {sb:>4} {row}")

    print("\noffline accuracy on fresh CPU-floorplan logs:")
    test = RouterLogCorpus.cpu_floorplans(n=400, seed=11)
    for k in (1, 2, 3):
        print("  " + evaluate_policy(card, test, k).summary_row())

    # live deployment: a congested flow with and without the guard
    spec = pulpino_profile()
    congested = FlowOptions(utilization=0.93, router_tracks_per_um=9.0)
    print("\nrunning a congested flow WITHOUT the guard...")
    plain = SPRFlow().run(spec, congested, seed=12)
    plain_droute = [l for l in plain.logs if l.step == "droute"][0]
    print(f"  router ran {plain_droute.metrics['iterations']:.0f} iterations, "
          f"ended at {plain.final_drvs} DRVs (routed={plain.routed})")

    print("running the same flow WITH the 2-consecutive-STOP guard...")
    guard = KillPolicy(card, consecutive=2)
    guarded = SPRFlow(stop_callback=guard).run(spec, congested, seed=12)
    guarded_droute = [l for l in guarded.logs if l.step == "droute"][0]
    print(f"  router ran {guarded_droute.metrics['iterations']:.0f} iterations "
          f"before the guard stopped it")
    saved = plain_droute.runtime_proxy - guarded_droute.runtime_proxy
    print(f"  detailed-route work saved: {saved:.0f} units "
          f"({100 * saved / max(1, plain_droute.runtime_proxy):.0f}%)")


if __name__ == "__main__":
    main()
