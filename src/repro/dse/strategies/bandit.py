"""The "bandit" strategy: batched bandit scheduling as an engine plugin.

The paper's Fig 7 loop ("40 iterations and 5 concurrent samples (tool
runs) per iteration"): per iteration the policy selects
``n_concurrent`` arms, one per license, the environment pulls them as
one batch (through the engine's executor when it has one), and the
policy updates with every reward before the next iteration.

The task is either an explicit ``(policy, environment)`` pair, as
``repro mab`` and the Fig 7 benchmarks pass, or a
:class:`~repro.eda.synthesis.DesignSpec`, in which case a
:class:`FlowArmEnvironment` over the search space's
``target_clock_ghz`` menu and a Thompson-sampling policy are built
from the campaign seed (the declarative ``repro dse`` path).  Only the
second reads the seed.
"""

from __future__ import annotations

from typing import List

from repro.core.bandit.regret import BanditRunRecord
from repro.dse.registry import Strategy, register_strategy
from repro.dse.result import DSEResult


@register_strategy
class BanditStrategy(Strategy):
    """Batched bandit over tool-run arms.

    Params: ``n_iterations`` (default 40), ``n_concurrent`` (5), both
    >= 1, and for the declarative path ``max_area`` / ``max_power``
    constraints.  One :class:`BanditRunRecord` per pull lands in
    ``records``.
    """

    name = "bandit"

    def run(self, task, ctx) -> DSEResult:
        n_iterations = int(ctx.params.get("n_iterations", 40))
        n_concurrent = int(ctx.params.get("n_concurrent", 5))
        if n_iterations < 1 or n_concurrent < 1:
            raise ValueError("iterations and concurrency must be >= 1")
        if isinstance(task, tuple) and len(task) == 2:
            policy, env = task
        else:
            policy, env = self._build_campaign(task, ctx)
        if policy.n_arms != env.n_arms:
            raise ValueError(
                f"policy has {policy.n_arms} arms but environment has {env.n_arms}"
            )
        result = DSEResult(method=self.name, objective=ctx.objective.name,
                           best_score=0.0, n_iterations=n_iterations,
                           n_concurrent=n_concurrent)
        best = 0.0
        best_result_key = None
        for it in range(n_iterations):
            if ctx.tracker.exhausted:
                result.n_iterations = it
                break
            arms = [policy.select() for _ in range(n_concurrent)]
            outcomes = env.pull_batch(arms, executor=ctx.executor,
                                      stop_callback=ctx.stop_callback)
            for slot, (arm, (reward, info)) in enumerate(zip(arms, outcomes)):
                policy.update(arm, reward)
                success = bool(getattr(info, "success", None)
                               if not isinstance(info, dict) else info.get("success"))
                result.records.append(
                    BanditRunRecord(
                        iteration=it, slot=slot, arm=arm, reward=reward, success=success
                    )
                )
                result.n_runs += 1
                ctx.tracker.charge_runs(1)
                if not success:
                    result.n_failed += 1
                best = max(best, reward)
                flow_result = getattr(info, "result", None)
                if flow_result is not None:
                    result.total_runtime_proxy += flow_result.runtime_proxy
                    ctx.tracker.charge_proxy(flow_result.runtime_proxy)
                    key = ctx.objective.key(flow_result)
                    if best_result_key is None or key > best_result_key:
                        best_result_key = key
                        result.best_result = flow_result
            result.trace.append(best)
        result.best_score = best
        result.all_scores = [r.reward for r in result.records]
        return result

    @staticmethod
    def _build_campaign(spec, ctx):
        from repro.core.bandit.environment import FlowArmEnvironment
        from repro.core.bandit.policies import ThompsonSampling

        frequencies: List[float] = []
        for step in ctx.space.tree.steps:
            if "target_clock_ghz" in step.options:
                frequencies = [float(f) for f in step.options["target_clock_ghz"]]
        if not frequencies:
            raise ValueError(
                "bandit campaigns need a target_clock_ghz menu in the space")
        seed = 0 if ctx.seed is None else int(ctx.seed)
        env = FlowArmEnvironment(
            spec, frequencies, seed=seed,
            max_area=ctx.params.get("max_area"),
            max_power=ctx.params.get("max_power"),
        )
        return ThompsonSampling(env.n_arms, seed=seed + 1), env
