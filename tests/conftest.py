import pytest

from sl2unitals import catalog
from sl2unitals.design import (
    build_affine_unital,
    close,
    flat_parallelism,
    natural_parallelism,
)

CATALOG_NAMES = ("classical8", "wu", "ou", "pu")


@pytest.fixture(scope="session")
def sl2():
    return catalog.context()


@pytest.fixture(scope="session")
def unitals(sl2):
    return {name: build_affine_unital(catalog.load(name)) for name in CATALOG_NAMES}


@pytest.fixture(scope="session")
def parallelisms(unitals):
    out = {}
    for name, u in unitals.items():
        out[(name, "flat")] = flat_parallelism(u)
        out[(name, "natural")] = natural_parallelism(u)
    return out


@pytest.fixture(scope="session")
def closures(unitals, parallelisms):
    return {
        (name, par): close(unitals[name], parallelisms[(name, par)])
        for name in CATALOG_NAMES
        for par in ("flat", "natural")
    }


@pytest.fixture(scope="session")
def q4_unital():
    """An affine SL(2,4)-unital: the first system of the q = 4 search."""
    from sl2unitals.hatsearch import SearchConfig, search
    from sl2unitals.sl2q import sl2_context

    torus = sl2_context(4).default_torus()
    return build_affine_unital(search(SearchConfig(q=4, torus_params=torus)).systems[0])


@pytest.fixture(scope="session")
def named(sl2):
    return catalog.constants(sl2)


@pytest.fixture(scope="session")
def search_result_symmetric(named):
    """The symmetric search used in several tests: run once per session."""
    from sl2unitals.hatsearch import SearchConfig, SymmetryConstraint, search

    cfg = SearchConfig(
        constraints=(
            SymmetryConstraint((named.U[1],), "stabilize"),
            SymmetryConstraint((named.L[1],), "orbits", orbit_shape=(3, 3)),
        )
    )
    return cfg, search(cfg)
