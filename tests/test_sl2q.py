"""Group substrate tests: enumeration, subgroups, automorphisms."""

import random

import numpy as np
import pytest

from sl2unitals.gf2e import GF2e
from sl2unitals.sl2q import SL2, AutMap, sl2_context

G = (4, 6, 6, 2)  # generator of the order-9 torus
F = (0, 1, 1, 0)


def brute_force_elements(field: GF2e) -> set[tuple]:
    """Independent oracle: all q^4 tuples filtered by the determinant."""
    out = set()
    for a in field.elements():
        for b in field.elements():
            for c in field.elements():
                for d in field.elements():
                    if field.mul(a, d) ^ field.mul(b, c) == 1:
                        out.add((a, b, c, d))
    return out


@pytest.fixture(scope="module")
def sl8():
    return sl2_context(8)


class TestEnumeration:
    @pytest.mark.parametrize("q,expected", [(2, 6), (4, 60), (8, 504)])
    def test_against_brute_force(self, q, expected):
        group = sl2_context(q)
        oracle = brute_force_elements(group.field)
        assert len(oracle) == expected == group.order
        assert set(group.elements) == oracle

    def test_unsupported_q_rejected_before_building(self):
        for q in (0, -8, 6):
            with pytest.raises(ValueError, match="not a power of 2"):
                sl2_context(q)
        with pytest.raises(ValueError, match=r"4\.3 GB"):
            sl2_context(32)

    def test_identity_first_then_lex(self, sl8):
        assert sl8.elements[0] == (1, 0, 0, 1)
        rest = sl8.elements[1:]
        assert rest == sorted(rest)

    def test_no_duplicates(self, sl8):
        assert len(set(sl8.elements)) == sl8.order

    def test_element_validates_determinant(self, sl8):
        with pytest.raises(ValueError, match="determinant"):
            sl8.element(1, 0, 0, 0)


class TestArithmetic:
    def test_identity_multiplication(self, sl8):
        for x in random.Random(1).sample(sl8.elements, 20):
            assert sl8.multiply(sl8.one, x) == x

    def test_f_is_involution(self, sl8):
        assert sl8.multiply(F, F) == sl8.one

    def test_g_has_order_nine(self, sl8):
        assert sl8.order_of_idx(sl8.idx(G)) == 9

    def test_inverse(self, sl8):
        assert sl8.inverse(sl8.one) == sl8.one
        assert sl8.multiply(sl8.inverse(G), G) == sl8.one
        assert sl8.inverse((1, 1, 0, 1)) == (1, 1, 0, 1)

    def test_conjugation_trivialities(self, sl8):
        rng = random.Random(2)
        for x in rng.sample(sl8.elements, 10):
            assert sl8.conjugate(x, sl8.one) == x
            assert sl8.conjugate(sl8.one, x) == sl8.one
        g3 = sl8.multiply(sl8.multiply(G, G), G)
        assert sl8.conjugate(g3, G) == g3

    def test_cayley_table_consistent(self, sl8):
        rng = random.Random(3)
        for _ in range(50):
            i, j = rng.randrange(sl8.order), rng.randrange(sl8.order)
            x, y = sl8.elements[i], sl8.elements[j]
            f = sl8.field
            expected = (
                f.mul(x[0], y[0]) ^ f.mul(x[1], y[2]),
                f.mul(x[0], y[1]) ^ f.mul(x[1], y[3]),
                f.mul(x[2], y[0]) ^ f.mul(x[3], y[2]),
                f.mul(x[2], y[1]) ^ f.mul(x[3], y[3]),
            )
            assert sl8.elements[sl8.mul_idx(i, j)] == expected


class TestSylow:
    def test_q8_has_nine(self, sl8):
        subs = sl8.sylow_subgroups
        assert len(subs) == 9
        assert all(len(s) == 8 for s in subs)

    def test_pairwise_trivial_intersection(self, sl8):
        subs = sl8.sylow_subgroups
        for i in range(len(subs)):
            for j in range(i + 1, len(subs)):
                assert subs[i] & subs[j] == {0}

    def test_union_size(self, sl8):
        union = set()
        for s in sl8.sylow_subgroups:
            union |= s
        assert len(union - {0}) == 63

    def test_unitriangular_among_them(self, sl8):
        upper = frozenset(sl8.idx((1, x, 0, 1)) for x in range(8))
        assert upper in sl8.sylow_subgroups

    def test_q2_has_three(self):
        group = sl2_context(2)
        assert len(group.sylow_subgroups) == 3
        assert all(len(s) == 2 for s in group.sylow_subgroups)


class TestTorus:
    def test_contains_g_and_identity(self, sl8):
        C = sl8.cyclic_subgroup(1, 1)
        assert len(C) == 9
        assert 0 in C
        assert sl8.idx(G) in C

    def test_members_solve_norm_equation(self, sl8):
        f = sl8.field
        for i in sl8.cyclic_subgroup(1, 1):
            a, b, c, d = sl8.elements[i]
            assert c == b and d == a ^ b
            assert f.mul(a, a) ^ f.mul(a, b) ^ f.mul(b, b) == 1

    def test_default_torus_is_first_irreducible(self, sl8):
        assert sl8.default_torus() == (1, 1)
        assert sl2_context(4).default_torus() == (1, 2)

    def test_reducible_parameters_rejected(self, sl8):
        with pytest.raises(ValueError, match="not a quadratic non-residue"):
            sl8.cyclic_subgroup(1, 0)

    def test_order_nine_subgroups_all_conjugate(self, sl8):
        # generated by the elements of order 9; all must be conjugates of C
        C = sl8.cyclic_subgroup(1, 1)
        subs = {
            sl8.subgroup_generated([i])
            for i in range(sl8.order)
            if sl8.order_of_idx(i) == 9
        }
        for s in subs:
            assert any(
                frozenset(sl8.conj_idx(x, h) for x in C) == s
                for h in range(sl8.order)
            )


class TestAutomorphisms:
    def test_identity_map(self, sl8):
        perm = sl8.aut_perm(sl8.identity_aut)
        assert np.array_equal(perm, np.arange(sl8.order))

    def test_conjugation_by_f_swaps(self, sl8):
        m = AutMap(F, 0)
        for x in random.Random(4).sample(sl8.elements, 25):
            a, b, c, d = x
            assert sl8.apply_aut(m, x) == (d, c, b, a)

    def test_frobenius_preserves_torus(self, sl8):
        C = sl8.cyclic_subgroup(1, 1)
        m = AutMap(sl8.one, 1)
        assert sl8.apply_aut_idx(m, sl8.idx(G)) in C

    def test_homomorphism_exhaustive_q2(self):
        group = sl2_context(2)
        for m in group.all_aut_maps:
            perm = group.aut_perm(m)
            for i in range(group.order):
                for j in range(group.order):
                    assert perm[group.mul_idx(i, j)] == group.mul_idx(
                        int(perm[i]), int(perm[j])
                    )

    def test_homomorphism_sampled_q8(self, sl8):
        rng = random.Random(5)
        maps = rng.sample(sl8.all_aut_maps, 6)
        for m in maps:
            perm = sl8.aut_perm(m)
            for _ in range(2000):
                i, j = rng.randrange(504), rng.randrange(504)
                assert perm[sl8.mul_idx(i, j)] == sl8.mul_idx(
                    int(perm[i]), int(perm[j])
                )

    def test_total_count(self, sl8):
        assert len(sl8.all_aut_maps) == 1512
        assert len(sl2_context(2).all_aut_maps) == 6

    def test_compose_matches_pointwise(self, sl8):
        rng = random.Random(6)
        for _ in range(10):
            a = AutMap(sl8.elements[rng.randrange(504)], rng.randrange(3))
            b = AutMap(sl8.elements[rng.randrange(504)], rng.randrange(3))
            left = sl8.aut_perm(sl8.compose_aut(a, b))
            right = sl8.aut_perm(b)[sl8.aut_perm(a)]
            assert np.array_equal(left, right)

    def test_invert_aut(self, sl8):
        rng = random.Random(7)
        for _ in range(10):
            a = AutMap(sl8.elements[rng.randrange(504)], rng.randrange(3))
            perm = sl8.aut_perm(sl8.compose_aut(a, sl8.invert_aut(a)))
            assert np.array_equal(perm, np.arange(504))

    def test_gamma_f_squared_is_identity(self, sl8):
        m = AutMap(F, 0)
        perm = sl8.aut_perm(sl8.compose_aut(m, m))
        assert np.array_equal(perm, np.arange(504))

    def test_gamma_g_phi_has_order_dividing_18(self, sl8):
        m = AutMap(G, 1)
        acc = sl8.identity_aut
        for _ in range(18):
            acc = sl8.compose_aut(acc, m)
        assert np.array_equal(sl8.aut_perm(acc), np.arange(504))


class TestStabilizer:
    def test_torus_stabilizer_order(self, sl8):
        C = sl8.cyclic_subgroup(1, 1)
        stab = sl8.aut_stabilizer(C)
        assert len(stab) == 54

    def test_contains_identity_and_closed(self, sl8):
        C = sl8.cyclic_subgroup(1, 1)
        stab = sl8.aut_stabilizer(C)
        keys = {sl8.aut_perm(m).tobytes() for m in stab}
        assert sl8.aut_perm(sl8.identity_aut).tobytes() in keys
        rng = random.Random(8)
        for _ in range(20):
            a, b = rng.choice(stab), rng.choice(stab)
            assert sl8.aut_perm(sl8.compose_aut(a, b)).tobytes() in keys
            assert sl8.aut_perm(sl8.invert_aut(a)).tobytes() in keys
