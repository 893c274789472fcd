"""R001: unseeded random number generators.

The paper's Fig 3 claim — tool noise is a *statistical* object — only
reproduces if every stochastic component draws from an explicitly
seeded generator that is injected into it.  ``random.random()`` and the
``np.random.*`` module-level functions share hidden global state: two
campaigns with the same seeds diverge the moment any code path touches
them, and pool workers each re-seed the global independently, so the
noise model silently changes with ``n_workers``.  A generator
constructed without a seed (``np.random.default_rng()``,
``random.Random()``, a ``None`` seed) draws its seed from OS entropy,
so no two runs agree.  Construct ``np.random.default_rng(seed)`` /
``random.Random(seed)`` and pass the generator instead.

The rule reads the summaries' call sites, resolved through the import
map: every call in a file, decorators, default arguments and class
bodies included, and the unseeded constructions the summarizer records
among them.  Resolution never consults local bindings, so a parameter
named ``random`` still reads as the module.  R012 reports the executor
call that ships such a construction to the workers.
"""

from __future__ import annotations

from repro.analysis.findings import Severity
from repro.analysis.registry import Rule, register_rule

#: numpy.random attributes that construct *explicit* generators — the
#: approved way to get randomness — rather than touching global state
_SEEDABLE_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

#: stdlib ``random`` attributes that are classes, not global-state calls
_STDLIB_CLASSES = {"Random", "SystemRandom"}


def _global_rng_message(target: str) -> str:
    """The finding for a call resolving to ``target`` ('' if it is fine)."""
    parts = target.split(".")
    if parts[0] == "random" and len(parts) == 2 and \
            parts[1] not in _STDLIB_CLASSES:
        return (f"call to global-state RNG '{target}'; use an injected "
                f"random.Random(seed) instead")
    if parts[:2] == ["numpy", "random"] and len(parts) == 3 and \
            parts[2] not in _SEEDABLE_CONSTRUCTORS:
        return (f"call to global-state RNG 'np.random.{parts[2]}'; use an "
                f"injected np.random.default_rng(seed) instead")
    return ""


def _unseeded_message(target: str) -> str:
    shown = "np." + target[len("numpy."):] if target.startswith("numpy.") \
        else target
    return (f"'{shown}' constructed without a seed draws it from OS "
            f"entropy; pass an explicit seed")


@register_rule
class UnseededGlobalRngRule(Rule):
    rule_id = "R001"
    name = "unseeded-global-rng"
    severity = Severity.ERROR
    description = (
        "module-level RNG state (random.* / np.random.* functions) and "
        "generators constructed without a seed are forbidden; inject a "
        "seeded random.Random or numpy Generator"
    )

    def check_context(self, context):
        for path, summary in context.summaries.items():
            for fn in summary.functions.values():
                for site in fn.calls:
                    message = _global_rng_message(site.target)
                    if message:
                        yield self.finding_at(path, site.lineno, message,
                                              col=site.col)
                for line, col, target in fn.rng_unseeded:
                    yield self.finding_at(path, line,
                                          _unseeded_message(target), col=col)
