"""Bandit environments: what pulling an arm means.

:class:`FlowArmEnvironment` is the real thing — each pull launches one
SP&R flow run (one "tool license" for one iteration) at the arm's
target frequency, exactly as in the paper's Fig 7 experiment on
PULPino.  :class:`SyntheticBanditEnvironment` provides cheap Bernoulli
arms for policy robustness sweeps and unit tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.parallel import FlowExecutionError, FlowExecutor, FlowJob
from repro.eda.flow import FlowOptions, FlowResult
from repro.eda.synthesis import DesignSpec


class BanditEnvironment:
    """Interface: ``pull(arm) -> (reward, info)`` with reward in [0, 1]."""

    n_arms: int

    def pull(self, arm: int):
        raise NotImplementedError

    def pull_batch(self, arms: Sequence[int], executor=None, stop_callback=None):
        """One batched iteration: outcomes for ``arms``, in order.

        The default loops :meth:`pull`; environments whose pulls are
        real flow runs override this to fan the batch across a
        :class:`~repro.core.parallel.FlowExecutor` (the paper's "5
        concurrent samples per iteration" as actual concurrency).
        Passing an ``executor`` to an environment that cannot use one
        warns instead of silently running serially; ``stop_callback``
        (the doomed-run kill hook) is likewise only honored by flow
        environments.
        """
        if executor is not None:
            warnings.warn(
                f"{type(self).__name__} executes pulls serially; "
                "the supplied executor is ignored",
                RuntimeWarning, stacklevel=2,
            )
        return [self.pull(arm) for arm in arms]

    def describe_arm(self, arm: int) -> str:
        return f"arm{arm}"


class SyntheticBanditEnvironment(BanditEnvironment):
    """Bernoulli arms with optional per-arm values.

    Reward of arm i is ``value[i] * Bernoulli(p[i])`` — the structure of
    the flow problem (a run either meets constraints or not, and a
    successful run at a higher frequency is worth more).
    """

    def __init__(
        self,
        success_probs: Sequence[float],
        values: Optional[Sequence[float]] = None,
        seed: Optional[int] = None,
    ):
        probs = np.asarray(success_probs, dtype=float)
        if probs.ndim != 1 or probs.size == 0:
            raise ValueError("success_probs must be a non-empty vector")
        if probs.min() < 0 or probs.max() > 1:
            raise ValueError("probabilities must be in [0, 1]")
        self.success_probs = probs
        if values is None:
            self.values = np.ones_like(probs)
        else:
            self.values = np.asarray(values, dtype=float)
            if self.values.shape != probs.shape:
                raise ValueError("values must match success_probs in length")
            if self.values.min() < 0 or self.values.max() > 1:
                raise ValueError("values must be in [0, 1]")
        self.n_arms = probs.size
        self.rng = np.random.default_rng(seed)

    @property
    def true_means(self) -> np.ndarray:
        return self.success_probs * self.values

    def pull(self, arm: int):
        success = self.rng.random() < self.success_probs[arm]
        reward = float(self.values[arm]) if success else 0.0
        return reward, {"success": bool(success)}


@dataclass
class FlowPullInfo:
    """Metadata for one flow-run pull.

    ``result`` is None (and ``error`` set) when the run itself failed
    to execute — a crashed/timed-out worker, recorded in the campaign
    trace as an unsuccessful pull instead of aborting the schedule.
    """

    target_ghz: float
    success: bool
    result: Optional[FlowResult]
    error: Optional[str] = None


class FlowArmEnvironment(BanditEnvironment):
    """Arms are target frequencies for the SP&R flow on one design.

    Reward: 0 for a run that misses timing/routing or the power/area
    constraints; otherwise the target frequency normalized by the
    highest arm (a successful faster design is worth more).  This is
    the paper's setup: "PULPino in 14nm foundry technology, with given
    power and area constraints".
    """

    def __init__(
        self,
        spec: DesignSpec,
        target_frequencies: Sequence[float],
        base_options: Optional[FlowOptions] = None,
        max_area: Optional[float] = None,
        max_power: Optional[float] = None,
        seed: Optional[int] = None,
    ):
        freqs = list(target_frequencies)
        if not freqs:
            raise ValueError("need at least one target frequency")
        if any(f <= 0 for f in freqs):
            raise ValueError("target frequencies must be positive")
        self.spec = spec
        self.frequencies = freqs
        self.base_options = base_options or FlowOptions()
        self.max_area = max_area
        self.max_power = max_power
        self.n_arms = len(freqs)
        self.rng = np.random.default_rng(seed)
        self._f_max = max(freqs)
        self.history: List[FlowPullInfo] = []

    def describe_arm(self, arm: int) -> str:
        return f"{self.frequencies[arm]:.3f}GHz"

    def pull(self, arm: int):
        return self.pull_batch([arm])[0]

    def pull_batch(self, arms: Sequence[int], executor=None, stop_callback=None):
        """Run one license-batch of flow pulls, optionally in parallel.

        Seeds are drawn from the environment rng in slot order before
        any run launches, so outcomes are bit-identical to serial
        :meth:`pull` calls regardless of worker count.  Without an
        ``executor`` the batch runs on a private serial one with no
        result cache.  With a ``stop_callback`` (an online kill
        policy), doomed pulls are terminated mid-route.  A run that
        fails to execute is an unsuccessful pull (see
        :class:`FlowPullInfo`).

        Stage-cache note: because every pull gets a fresh seed (the
        bit-identity contract above), an executor's ``stage_cache=True``
        can only reuse prefixes across *identical* ``(options, seed)``
        pulls here.  Fixed-seed suffix-knob sweeps are the access
        pattern it accelerates.
        """
        if executor is None:
            executor = FlowExecutor(n_workers=1, cache=None)
        jobs = [
            FlowJob(
                self.spec,
                self.base_options.with_(target_clock_ghz=self.frequencies[arm]),
                int(self.rng.integers(0, 2**31 - 1)),
            )
            for arm in arms
        ]
        outcomes = []
        for arm, run in zip(arms, executor.run_jobs(jobs, stop_callback=stop_callback)):
            if isinstance(run, FlowExecutionError):
                info = FlowPullInfo(target_ghz=self.frequencies[arm],
                                    success=False, result=None, error=str(run))
                self.history.append(info)
                outcomes.append((0.0, info))
            else:
                outcomes.append(self._score_pull(arm, run))
        return outcomes

    def _score_pull(self, arm: int, result: FlowResult):
        success = result.meets(self.max_area, self.max_power)
        reward = self.frequencies[arm] / self._f_max if success else 0.0
        info = FlowPullInfo(
            target_ghz=self.frequencies[arm], success=success, result=result
        )
        self.history.append(info)
        return reward, info
