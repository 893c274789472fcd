"""The builtin determinism & parallel-safety rule pack.

Importing this package registers every rule (the modules register on
import via :func:`~repro.analysis.registry.register_rule`):

======  ==============================  ========
id      name                            severity
======  ==============================  ========
R001    unseeded-global-rng             error
R002    unguarded-module-state          error
R003    nondeterministic-iteration      error
R004    wall-clock-read                 error
R005    unpicklable-across-pool         error
R006    metrics-vocabulary-drift        error*
R007    swallowed-exception             error*
R008    undocumented-cli-flag           warning
R009    inconsistent-lock-discipline    error
R010    non-atomic-shared-write         error
R012    rng-across-process-boundary     error
======  ==============================  ========

(*) R006 reports dead vocabulary entries and R007 reports swallowed
broad handlers at *warning*; their headline findings are errors.

R006, R008, R009, R010 and R012 are cross-file rules: they implement
``check_context`` against the whole-program
:class:`~repro.analysis.project.ProjectContext`, built from per-file
summaries on every ``repro lint`` run.

See ``docs/static-analysis.md`` for the catalog with rationale and
fix recipes.
"""

from repro.analysis.rules import (  # noqa: F401  (register on import)
    cli_docs,
    exceptions,
    io_atomicity,
    iteration,
    metrics_vocab,
    pickle_safety,
    races,
    rng,
    rng_taint,
    state,
    wallclock,
)
