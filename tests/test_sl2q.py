"""Group substrate tests: enumeration, subgroups, automorphisms."""

import random
import tracemalloc

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


def reference_tables(field: GF2e) -> dict:
    """Independent oracle for the vectorised constructor: the element loop
    solving ad + bc = 1 for the second row, the Cayley table from int64
    products of the four entries, and the Sylow subgroups conjugated one
    element at a time."""
    q = field.q
    one = (1, 0, 0, 1)
    inv = {a: next(x for x in range(q) if field.mul(a, x) == 1) for a in range(1, q)}
    elems = [one]
    for a in range(q):
        for b in range(q):
            if a == 0 and b == 0:
                continue
            for c in range(q):
                if a != 0:
                    t = (a, b, c, field.mul(1 ^ field.mul(b, c), inv[a]))
                    if t != one:
                        elems.append(t)
                elif c == inv[b]:
                    elems.extend((a, b, c, d) for d in range(q))
    elements = [one] + sorted(elems[1:])
    index = {t: i for i, t in enumerate(elements)}
    n, e = len(elements), field.e
    arr = np.array(elements, dtype=np.int64)
    a, b, c, d = arr.T
    M = field.mul_table.astype(np.int64)
    packed_index = np.full(1 << (4 * e), -1, dtype=np.int32)
    packed_index[(a << 3 * e) | (b << 2 * e) | (c << e) | d] = np.arange(n, dtype=np.int32)
    pa = M[a[:, None], a[None, :]] ^ M[b[:, None], c[None, :]]
    pb = M[a[:, None], b[None, :]] ^ M[b[:, None], d[None, :]]
    pc = M[c[:, None], a[None, :]] ^ M[d[:, None], c[None, :]]
    pd = M[c[:, None], b[None, :]] ^ M[d[:, None], d[None, :]]
    cayley = packed_index[(pa << 3 * e) | (pb << 2 * e) | (pc << e) | pd].astype(np.int32)
    inverse = packed_index[(d << 3 * e) | (b << 2 * e) | (c << e) | a].astype(np.int32)
    F = np.asarray(field._frob, dtype=np.int64)
    frob = packed_index[(F[a] << 3 * e) | (F[b] << 2 * e) | (F[c] << e) | F[d]].astype(np.int32)

    def conj_idx(i, h):
        return int(cayley[cayley[inverse[h], i], h])

    upper = frozenset(index[(1, x, 0, 1)] for x in range(q))
    seen = {upper} | {frozenset(conj_idx(t, h) for t in upper) for h in range(n)}
    sylow = tuple(sorted(seen, key=lambda s: sorted(s)))
    return dict(elements=elements, index=index, cayley=cayley, inverse_index=inverse,
                frob_index=frob, sylow_subgroups=sylow)


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

    @pytest.mark.parametrize("e,modulus", [(1, 3), (2, 7), (3, 11), (3, 13)])
    def test_tables_match_the_reference_constructor(self, e, modulus):
        field = GF2e(e, modulus)
        group, ref = SL2(field), reference_tables(field)
        assert group.elements == ref["elements"]
        assert list(group.index.items()) == list(ref["index"].items())
        for key in ("cayley", "inverse_index", "frob_index"):
            table = getattr(group, key)
            assert table.dtype == ref[key].dtype and np.array_equal(table, ref[key]), key
        assert group.sylow_subgroups == ref["sylow_subgroups"]

    def test_build_peak_memory_near_the_table(self):
        # The int64 build of the reference peaks at 12x the table.
        field = GF2e(3)
        tracemalloc.start()
        try:
            group = SL2(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * group.cayley.nbytes

    def test_element_validates_determinant(self, sl8):
        with pytest.raises(ValueError, match="determinant"):
            sl8.element(1, 0, 0, 0)


class TestArithmetic:
    def test_identity_multiplication(self, sl8):
        assert sl8.elements[0] == sl8.one
        for i in random.Random(1).sample(range(sl8.order), 20):
            assert sl8.cayley[0, i] == i

    def test_f_is_involution(self, sl8):
        f = sl8.idx(F)
        assert sl8.cayley[f, f] == 0

    def test_g_has_order_nine(self, sl8):
        assert sl8.order_of_idx(sl8.idx(G)) == 9

    def test_inverse(self, sl8):
        g, t = sl8.idx(G), sl8.idx((1, 1, 0, 1))
        assert sl8.inverse_index[0] == 0
        assert sl8.cayley[sl8.inverse_index[g], g] == 0
        assert sl8.inverse_index[t] == t

    def test_conjugation_trivialities(self, sl8):
        rng = random.Random(2)
        for i in rng.sample(range(sl8.order), 10):
            assert sl8.conj_idx(i, 0) == i
            assert sl8.conj_idx(0, i) == 0
        g = sl8.idx(G)
        g3 = int(sl8.cayley[sl8.cayley[g, g], g])
        assert sl8.conj_idx(g3, g) == g3

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
            assert sl8.elements[sl8.cayley[i, j]] == expected


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
            assert sl8.elements[sl8.aut_perm(m)[sl8.idx(x)]] == (d, c, b, a)

    def test_frobenius_preserves_torus(self, sl8):
        C = sl8.cyclic_subgroup(1, 1)
        m = AutMap(sl8.one, 1)
        assert int(sl8.aut_perm(m)[sl8.idx(G)]) in C

    def test_homomorphism_exhaustive_q2(self):
        group = sl2_context(2)
        for m in group.all_aut_maps:
            perm = group.aut_perm(m)
            for i in range(group.order):
                for j in range(group.order):
                    assert perm[group.cayley[i, j]] == group.cayley[perm[i], perm[j]]

    def test_homomorphism_sampled_q8(self, sl8):
        rng = random.Random(5)
        maps = rng.sample(sl8.all_aut_maps, 6)
        for m in maps:
            perm = sl8.aut_perm(m)
            for _ in range(2000):
                i, j = rng.randrange(504), rng.randrange(504)
                assert perm[sl8.cayley[i, j]] == sl8.cayley[perm[i], perm[j]]

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
            # the inverse map, as the inverse permutation
            assert np.argsort(sl8.aut_perm(a)).astype(np.int32).tobytes() in keys


def reference_aut_perms(group: SL2) -> np.ndarray:
    """Independent oracle for ``aut_table``: the per-map build, conjugation
    by h as cayley[cayley[inv[h]], h] and then k Frobenius steps, one map
    at a time in (h, k) order."""
    perms = []
    for h in range(group.order):
        perm = group.cayley[group.cayley[group.inverse_index[h]], h]
        for _ in range(group.field.e):
            perms.append(perm)
            perm = group.frob_index[perm]
    return np.array(perms)


def reference_transporter(group: SL2, s1, s2) -> tuple[AutMap, ...]:
    """Independent oracle for ``aut_transporter``: the per-map filter."""
    return tuple(
        m for m in group.all_aut_maps if all(int(group.aut_perm(m)[s]) in s2 for s in s1)
    )


def transported(group: SL2, row: int, s1) -> frozenset[int]:
    return frozenset(group.aut_table[row, sorted(s1)].tolist())


class TestAutTable:
    @pytest.mark.parametrize("q", [2, 4, 8])
    def test_rows_match_the_per_map_build(self, q):
        group = sl2_context(q)
        table, e = group.aut_table, group.field.e
        assert table.dtype == np.int16 and not table.flags.writeable
        assert np.array_equal(table, reference_aut_perms(group))
        assert len({row.tobytes() for row in table}) == len(table)
        for i, m in enumerate(group.all_aut_maps):
            assert m == AutMap(group.elements[i // e], i % e)
            assert group.aut_row(m) == i
            if i % 7 == 0:
                assert np.array_equal(group.aut_perm(m), table[i])

    def test_aut_perm_does_not_build_the_table(self):
        group = SL2(GF2e(3))
        perm = group.aut_perm(AutMap(G, 1))
        assert perm.dtype == np.int32 and not perm.flags.writeable
        assert "aut_table" not in group.__dict__
        assert np.array_equal(perm, group.aut_table[group.aut_row(AutMap(G, 1))])

    def test_build_peaks_near_the_table(self):
        """The table is filled in chunks: no full-size temporary beside it."""
        group = SL2(GF2e(3))
        tracemalloc.start()
        try:
            table = group.aut_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * table.nbytes

    def test_equal_rows_raise(self):
        # the distinctness check reads the generators' images; with the
        # identity as the only "generator" every row agrees there
        group = SL2(GF2e(2))
        group.__dict__["generators"] = (0,)
        with pytest.raises(RuntimeError, match="duplicate automorphism map"):
            group.aut_table

    def test_transporter_matches_the_per_map_filter(self, sl8):
        q4 = sl2_context(4)
        f = q4.field
        tori = [
            q4.cyclic_subgroup(d, t)
            for d in f.elements() for t in f.nonzero_elements() if f.discriminant_check(d, t)
        ]
        rng = random.Random(20)
        C, T = sl8.cyclic_subgroup(1, 1), sl8.sylow_subgroups[3]
        row = rng.randrange(len(sl8.aut_table))
        cases = [(q4, s1, s2) for s1 in tori for s2 in tori]
        cases += [(sl8, C, C), (sl8, T, T), (sl8, C, T), (sl8, T, sl8.sylow_subgroups[5])]
        for s in (C, T):
            image = transported(sl8, row, s)
            assert row in sl8.aut_transporter(s, image)
            cases += [(sl8, s, image), (sl8, image, image), (sl8, image, s)]
        for group, s1, s2 in cases:
            want = reference_transporter(group, s1, s2)
            rows = group.aut_transporter(s1, s2)
            assert tuple(group.all_aut_maps[i] for i in rows) == want
            assert list(rows) == sorted(rows)
            if s1 == s2:
                assert group.aut_stabilizer(s1) == want
        assert len(sl8.aut_stabilizer(C)) == 54
        assert len(sl8.aut_transporter(C, T)) == 0
