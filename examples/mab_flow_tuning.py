"""No-human-in-the-loop flow tuning with a multi-armed bandit (Sec 3.1).

Reproduces the paper's Fig 7 scenario: a Thompson-Sampling bandit
spends a budget of 5 concurrent tool licenses x 25 iterations finding
the best target frequency for a PULPino-class core under power and
area constraints — no engineer picks the target.

Usage::

    python examples/mab_flow_tuning.py
"""

import numpy as np

from repro.bench import pulpino_profile
from repro.core.bandit import FlowArmEnvironment, ThompsonSampling
from repro.dse import DSEEngine

FREQUENCIES = [0.45, 0.55, 0.65, 0.72, 0.78, 0.84, 0.92]
MAX_AREA = 300.0  # um^2
MAX_POWER = 450.0  # uW


def main() -> None:
    spec = pulpino_profile()
    env = FlowArmEnvironment(
        spec, FREQUENCIES, max_area=MAX_AREA, max_power=MAX_POWER, seed=1
    )
    policy = ThompsonSampling(env.n_arms, seed=2)
    campaign = DSEEngine(strategy="bandit",
                         params={"n_iterations": 25, "n_concurrent": 5})

    print(f"arms (target GHz): {FREQUENCIES}")
    print(f"constraints: area <= {MAX_AREA} um^2, power <= {MAX_POWER} uW")
    print("running 25 iterations x 5 concurrent SP&R flows...\n")

    result = campaign.run((policy, env))

    print(f"{'iter':>5}  sampled targets (* = met constraints)")
    by_iter = {}
    for rec in result.records:
        by_iter.setdefault(rec.iteration, []).append(rec)
    for it in sorted(by_iter):
        cells = [
            f"{FREQUENCIES[r.arm]:.2f}{'*' if r.success else ' '}"
            for r in by_iter[it]
        ]
        print(f"{it:>5}  {' '.join(cells)}")

    pulls = np.bincount([r.arm for r in result.records], minlength=len(FREQUENCIES))
    posterior = policy.posterior_mean()
    print("\narm summary:")
    print(f"{'GHz':>6} {'pulls':>6} {'posterior reward':>17}")
    for i, freq in enumerate(FREQUENCIES):
        print(f"{freq:>6.2f} {pulls[i]:>6} {posterior[i]:>17.3f}")

    best_arm = int(np.argmax(posterior))
    feasible = [info for info in env.history if info.success]
    print(f"\nbandit's choice: {FREQUENCIES[best_arm]:.2f} GHz")
    print(f"successful runs: {len(feasible)}/{len(env.history)}")
    if feasible:
        best = max(feasible, key=lambda i: i.target_ghz)
        print(f"fastest constraint-meeting run: {best.target_ghz:.2f} GHz "
              f"(area {best.result.area:.1f}, power {best.result.power:.1f})")


if __name__ == "__main__":
    main()
