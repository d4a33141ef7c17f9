"""Candidate enumeration, exact cover, and the full search pipeline."""

import pytest

from sl2unitals import catalog
from sl2unitals.design import build_affine_unital, check_P, quotient_set
from sl2unitals.hatsearch import (
    CoverInstance,
    SearchConfig,
    SymmetryConstraint,
    canonical_hat_representative,
    enumerate_candidates,
    exact_cover,
    hats_with_quotients,
    is_valid_candidate,
    residue_universe,
    search,
)
from sl2unitals.morphisms import are_isomorphic_affine
from sl2unitals.sl2q import AutMap, sl2_context


@pytest.fixture(scope="module")
def torus_c(sl2):
    return sl2.cyclic_subgroup(1, 1)


@pytest.fixture(scope="module")
def q4():
    group = sl2_context(4)
    f = group.field
    d, t = next(
        (d, t)
        for d in f.elements()
        for t in f.nonzero_elements()
        if f.discriminant_check(d, t)
    )
    return group, group.cyclic_subgroup(d, t)


class TestUniverse:
    def test_size(self, sl2, torus_c):
        assert len(residue_universe(sl2, torus_c)) == 503 - 8 - 63

    def test_catalog_quotients_inside(self, sl2, torus_c):
        uni = set(residue_universe(sl2, torus_c))
        for name in catalog.NAMES:
            for base in catalog.load(name).bases:
                assert quotient_set(sl2, base).elements <= uni

    def test_closed_under_inversion(self, sl2, torus_c):
        uni = set(residue_universe(sl2, torus_c))
        assert {sl2.inv_idx(x) for x in uni} == uni


class TestCandidatePredicate:
    def test_catalog_bases_are_unconstrained_candidates(self, sl2, torus_c):
        for name in catalog.NAMES:
            for base in catalog.load(name).bases:
                rep = canonical_hat_representative(sl2, base)
                assert is_valid_candidate(sl2, torus_c, rep)

    def test_non_canonical_translate_rejected(self, sl2, torus_c):
        base = catalog.load("wu").bases[0]
        rep = canonical_hat_representative(sl2, base)
        cay, inv = sl2.cayley, sl2.inverse_index
        others = [
            tuple(sorted(int(cay[x, inv[d]]) for x in rep)) for d in rep if d != 0
        ]
        assert any(not is_valid_candidate(sl2, torus_c, o) for o in others)

    def test_subgroup_rejected(self, sl2, torus_c):
        assert not is_valid_candidate(sl2, torus_c, tuple(sorted(torus_c)))


class TestEnumeration:
    def test_q4_unconstrained_complete(self, q4):
        group, torus = q4
        cands, complete = enumerate_candidates(group, torus)
        assert complete
        assert len(cands) == 202
        assert all(is_valid_candidate(group, torus, c.block) for c in cands)

    def test_limit_flags_partial(self, q4):
        group, torus = q4
        cands, complete = enumerate_candidates(group, torus, limit=10)
        assert not complete
        assert len(cands) == 10

    def test_time_budget_flags_partial(self, sl2, torus_c):
        cands, complete = enumerate_candidates(sl2, torus_c, time_budget_sec=0.2)
        assert not complete

    def test_deterministic(self, q4):
        group, torus = q4
        a, _ = enumerate_candidates(group, torus)
        b, _ = enumerate_candidates(group, torus)
        assert [c.block for c in a] == [c.block for c in b]

    def test_structured_equals_generic_order3_q4(self, q4):
        group, torus = q4
        x3 = next(
            group.elements[i] for i in range(group.order) if group.order_of_idx(i) == 3
        )
        con = (SymmetryConstraint((AutMap(x3, 0),), "stabilize"),)
        gen, _ = enumerate_candidates(group, torus, con, method="generic")
        stru, _ = enumerate_candidates(group, torus, con, method="structured")
        assert [c.block for c in gen] == [c.block for c in stru]

    def test_structured_subset_generic_frobenius_q4(self, q4):
        # the documented gap: hats moved by the constraint escape the
        # structured decomposition; here the generic reference finds two
        # additional candidates whose hats the Frobenius swaps
        group, torus = q4
        con = (SymmetryConstraint((AutMap(group.one, 1),), "stabilize"),)
        gen, _ = enumerate_candidates(group, torus, con, method="generic")
        stru, _ = enumerate_candidates(group, torus, con, method="structured")
        gen_blocks = {c.block for c in gen}
        stru_blocks = {c.block for c in stru}
        assert stru_blocks <= gen_blocks
        gam = group.aut_perm(AutMap(group.one, 1))
        for block in gen_blocks - stru_blocks:
            moved = tuple(sorted(int(gam[x]) for x in block))
            assert canonical_hat_representative(group, moved) != block

    def test_hats_with_quotients_recovers_all(self, q4):
        group, torus = q4
        con = (SymmetryConstraint((AutMap(group.one, 1),), "stabilize"),)
        gen, _ = enumerate_candidates(group, torus, con, method="generic")
        for c in gen:
            assert c.block in hats_with_quotients(group, c.quotients)

    def test_structured_stabilize_prunes(self, sl2, torus_c, named):
        cands, complete = enumerate_candidates(
            sl2, torus_c, (SymmetryConstraint((named.U[1],), "stabilize"),)
        )
        assert complete
        assert len(cands) == 7959
        gam = sl2.aut_perm(named.U[1])
        sample = cands[:: len(cands) // 50]
        for c in sample:
            assert frozenset(int(gam[x]) for x in c.quotients) == c.quotients
        reps = {c.block for c in cands}
        for name in catalog.NAMES:
            for base in catalog.load(name).bases:
                assert canonical_hat_representative(sl2, base) in reps


class TestExactCover:
    def test_toy_instance_unique_solution(self):
        universe = tuple(range(7))
        rows = (
            frozenset({2, 4, 5}),
            frozenset({0, 3, 6}),
            frozenset({1, 2, 5}),
            frozenset({0, 3}),
            frozenset({1, 6}),
            frozenset({3, 4, 6}),
        )
        res = exact_cover(CoverInstance(universe, rows, arity=3))
        assert res.complete
        assert res.solutions == [(3, 4, 0)] or sorted(res.solutions[0]) == [0, 3, 4]
        assert len(res.solutions) == 1

    def test_seeded_rows_return_their_system(self, sl2, torus_c):
        uni = residue_universe(sl2, torus_c)
        for name in catalog.NAMES:
            rows = tuple(
                quotient_set(sl2, b).elements for b in catalog.load(name).bases
            )
            res = exact_cover(CoverInstance(uni, rows, arity=6))
            assert res.complete
            assert [sorted(s) for s in res.solutions] == [[0, 1, 2, 3, 4, 5]]

    def test_uncoverable_element_gives_no_solution(self):
        universe = (0, 1, 2)
        rows = (frozenset({0}), frozenset({1}))
        res = exact_cover(CoverInstance(universe, rows, arity=2))
        assert res.complete and res.solutions == []

    def test_duplicate_rows_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            exact_cover(
                CoverInstance((0, 1), (frozenset({0}), frozenset({0})), arity=2)
            )

    def test_budget_and_resume(self, sl2, torus_c):
        uni = residue_universe(sl2, torus_c)
        rows = []
        seen = set()
        for name in catalog.NAMES:
            for b in catalog.load(name).bases:
                s = quotient_set(sl2, b).elements
                if s not in seen:
                    seen.add(s)
                    rows.append(s)
        instance = CoverInstance(uni, tuple(rows), arity=6)
        full = exact_cover(instance)
        assert full.complete and len(full.solutions) == 4

        partial = exact_cover(instance, max_nodes=8)
        assert not partial.complete
        assert partial.resume_token is not None
        resumed = exact_cover(instance, resume=partial.resume_token)
        combined = partial.solutions + resumed.solutions
        assert combined == full.solutions


class TestSearch:
    def test_symmetric_search_finds_catalog(self, unitals, search_result_symmetric):
        cfg, result = search_result_symmetric
        assert result.complete
        assert result.stats["enumeration_method"] == "structured"
        found = [build_affine_unital(s) for s in result.systems]
        for name, u in unitals.items():
            assert any(are_isomorphic_affine(u, f) is not None for f in found), name

    def test_adding_f_constraint_drops_ou_pu(self, named, unitals):
        cfg = SearchConfig(
            constraints=(
                SymmetryConstraint((named.U[1],), "stabilize"),
                SymmetryConstraint((named.F[1],), "stabilize"),
                SymmetryConstraint((named.L[1],), "orbits", orbit_shape=(3, 3)),
            )
        )
        result = search(cfg)
        found = [build_affine_unital(s) for s in result.systems]
        hits = {
            name: any(are_isomorphic_affine(unitals[name], f) is not None for f in found)
            for name in catalog.NAMES
        }
        assert hits == {"classical8": True, "wu": True, "ou": False, "pu": False}

    def test_results_verify_independently(self, sl2, search_result_symmetric):
        _, result = search_result_symmetric
        for system in result.systems:
            assert check_P(system)
            assert len(system.bases) == 6

    def test_tiny_budget_flags_partial(self):
        cfg = SearchConfig(time_budget_sec=0.2)
        result = search(cfg)
        assert not result.complete

    def test_default_torus_q4(self):
        default = search(SearchConfig(q=4))
        explicit = search(SearchConfig(q=4, torus_params=(1, 2)))
        assert default.systems and default.systems == explicit.systems

    def test_orbit_shape_validated(self, named):
        cfg = SearchConfig(
            constraints=(
                SymmetryConstraint((named.L[1],), "orbits", orbit_shape=(3, 2)),
            )
        )
        with pytest.raises(ValueError, match="does not sum"):
            search(cfg)

    def test_two_orbit_constraints_rejected(self, named):
        cfg = SearchConfig(
            constraints=(
                SymmetryConstraint((named.L[1],), "orbits", orbit_shape=(3, 3)),
                SymmetryConstraint((named.F[1],), "orbits", orbit_shape=(3, 3)),
            )
        )
        with pytest.raises(ValueError, match="at most one"):
            search(cfg)

    def test_constraint_mode_validated(self, named):
        with pytest.raises(ValueError, match="unknown constraint mode"):
            SymmetryConstraint((named.U[1],), "stabilise")
