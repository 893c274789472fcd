"""Shared fixtures: a library, a small design, and its placed/routed views.

Session-scoped where construction is expensive; tests must not mutate
shared fixtures (mutating tests build their own objects).  The netlist
and placement fixtures enforce this: they fail at teardown if any test
changed them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel.cache import design_fingerprint
from repro.eda.floorplan import make_floorplan
from repro.eda.library import make_default_library
from repro.eda.placement import QuadraticPlacer
from repro.eda.routing import GlobalRouter
from repro.eda.synthesis import DesignSpec, synthesize


@pytest.fixture(scope="session")
def library():
    return make_default_library()


@pytest.fixture(scope="session")
def small_spec():
    return DesignSpec(
        name="tiny",
        n_gates=120,
        n_flops=16,
        n_inputs=8,
        n_outputs=8,
        depth=10,
        locality=0.8,
    )


@pytest.fixture(scope="session")
def small_netlist(library, small_spec):
    netlist = synthesize(small_spec, library, effort=0.5, seed=7)
    fingerprint = design_fingerprint(netlist)
    yield netlist
    assert design_fingerprint(netlist) == fingerprint, \
        "a test mutated the shared small_netlist fixture"


@pytest.fixture(scope="session")
def small_floorplan(small_netlist):
    return make_floorplan(small_netlist, utilization=0.7)


@pytest.fixture(scope="session")
def small_placement(small_netlist, small_floorplan):
    placement = QuadraticPlacer().place(small_netlist, small_floorplan, seed=3)
    positions = dict(placement.positions)
    yield placement
    assert placement.positions == positions, \
        "a test mutated the shared small_placement fixture"


@pytest.fixture(scope="session")
def small_congestion(small_placement):
    return GlobalRouter().route(small_placement, seed=4).congestion_map()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
