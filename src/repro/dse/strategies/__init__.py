"""The built-in strategy pack: importing this package registers the
four historical searchers, the declarative sweep and the METRICS
closed loop with the registry (:mod:`repro.dse.registry`)."""

from repro.dse.strategies import bandit, landscape, miner, sweep, trajectory  # noqa: F401
