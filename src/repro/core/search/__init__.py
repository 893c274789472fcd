"""Parallel search paradigms (paper Sec 2, Fig 6).

"Simple multistart, or depth-first or breadth-first traversal of the
tree of flow options, is hopeless.  Rather, strategies such as
go-with-the-winners (GWTW), which launches multiple optimization
threads, and periodically identifies and clones the most promising
thread while terminating other threads, might be applied.  Adaptive
multistart strategies, which exploit an inherent 'big valley' structure
in optimization cost landscapes ... are also of interest."

This package holds the netlist-bisection landscape both are measured
on (the classic domain of the paper's refs [5][12]) and
:mod:`~repro.core.search.parallel_place`, GWTW over the substrate's own
placement annealer.  The landscape searchers are strategies of
:class:`repro.dse.DSEEngine`: ``"gwtw"`` and its no-cloning control
``"independent"`` (Fig 6(a)), and ``"multistart"`` and its all-random
control ``"random"`` (Fig 6(b)), each run as
``DSEEngine(strategy=..., params=...).run(problem, seed=...)``.
"""

from repro.core.search.landscape import BisectionProblem, big_valley_correlation

__all__ = [
    "BisectionProblem",
    "big_valley_correlation",
]
