"""Automorphism groups, hat actions, isomorphism and closure transport."""

import random
from itertools import product

import numpy as np
import pytest
from conftest import CATALOG_NAMES
from test_catalog import relabelled

from sl2unitals import catalog
from sl2unitals.design import UnitalError, build_affine_unital, close, quotient_set
from sl2unitals.morphisms import (
    GroupDescription,
    UnitalMap,
    _iso_alphas,
    _iso_rows,
    are_isomorphic_affine,
    closed_point_map,
    closures_isomorphic,
    describe_aut_group,
    full_aut_order,
    is_automorphism,
    maps_parallelism,
    point_perm,
    stabilizer_of_identity,
    verify_translation,
)
from sl2unitals.sl2q import AutMap

EXPECTED = {
    "classical8": (54, "C9:C6", 27216, 1),
    "wu": (18, "C3:C6", 9072, 3),
    "ou": (27, "C9:C3", 13608, 2),
    "pu": (27, "C9:C3", 13608, 2),
}


def gamma(sl2, elt):
    return AutMap(elt, 0)


def gamma_g3(sl2, named):
    gi = sl2.idx(named.g)
    return AutMap(sl2.elements[sl2.cayley[sl2.cayley[gi, gi], gi]], 0)


def hat_image(unital, alpha):
    """Image of each hat (as a set of block ids) under the map."""
    perm = unital.group.aut_perm(alpha)
    out = []
    for hat in unital.hats:
        ids = set()
        for bid in hat:
            moved = tuple(sorted(int(perm[p]) for p in unital.blocks[bid]))
            ids.add(unital.block_index.get(moved))
        out.append(frozenset(ids))
    return out


class TestIsAutomorphism:
    def test_right_translations(self, sl2, unitals):
        rng = random.Random(11)
        for u in unitals.values():
            for h in rng.sample(range(504), 2):
                psi = UnitalMap(sl2.identity_aut, h)
                assert is_automorphism(u, psi)
                assert is_automorphism(u, psi, full=True)

    def test_gamma_f_on_wu_and_ou(self, sl2, unitals, named):
        gf = gamma(sl2, named.f)
        assert is_automorphism(unitals["wu"], UnitalMap(gf, 0)) is True
        assert is_automorphism(unitals["ou"], UnitalMap(gf, 0)) is False
        assert is_automorphism(unitals["pu"], UnitalMap(gf, 0)) is False

    def test_gamma_g_on_wu(self, sl2, unitals, named):
        gg = gamma(sl2, named.g)
        assert is_automorphism(unitals["wu"], UnitalMap(gg, 0)) is False
        assert is_automorphism(unitals["wu"], UnitalMap(gamma_g3(sl2, named), 0)) is True

    def test_reduced_matches_full_mode(self, sl2, unitals, named):
        candidates = [
            UnitalMap(gamma(sl2, named.f), 0),
            UnitalMap(gamma(sl2, named.g), 0),
            UnitalMap(AutMap(sl2.one, 1), 7),
        ]
        for u in (unitals["wu"], unitals["ou"]):
            for psi in candidates:
                assert is_automorphism(u, psi) == is_automorphism(u, psi, full=True)


class TestHatActions:
    def test_classical_gamma_g_transitive_on_each_hat(self, sl2, unitals, named):
        u = unitals["classical8"]
        gg = gamma(sl2, named.g)
        perm = sl2.aut_perm(gg)
        for hat in u.hats:
            assert frozenset(
                u.block_index[tuple(sorted(int(perm[p]) for p in u.blocks[b]))]
                for b in hat
            ) == hat
            # transitivity: one block's orbit covers the hat
            b = min(hat)
            orbit = {b}
            cur = b
            for _ in range(9):
                cur = u.block_index[tuple(sorted(int(perm[p]) for p in u.blocks[cur]))]
                orbit.add(cur)
            assert orbit == set(hat)

    def test_classical_gamma_f_fixes_one_block_per_hat(self, sl2, unitals, named):
        u = unitals["classical8"]
        perm = sl2.aut_perm(gamma(sl2, named.f))
        for hat in u.hats:
            fixed = [
                b
                for b in hat
                if tuple(sorted(int(perm[p]) for p in u.blocks[b])) == u.blocks[b]
            ]
            assert len(fixed) == 1

    def test_wu_gamma_f_fixes_one_block_per_hat(self, sl2, unitals, named):
        u = unitals["wu"]
        perm = sl2.aut_perm(gamma(sl2, named.f))
        for hat in u.hats:
            images = {
                u.block_index.get(tuple(sorted(int(perm[p]) for p in u.blocks[b])))
                for b in hat
            }
            assert images == set(hat)
            fixed = [
                b
                for b in hat
                if tuple(sorted(int(perm[p]) for p in u.blocks[b])) == u.blocks[b]
            ]
            assert len(fixed) == 1

    def test_wu_g3_fixes_each_hat(self, sl2, unitals, named):
        u = unitals["wu"]
        assert hat_image(u, gamma_g3(sl2, named)) == list(u.hats)

    def test_ou_gamma_g_two_orbits_of_three(self, sl2, unitals, named):
        for name in ("ou", "pu"):
            u = unitals[name]
            images = hat_image(u, gamma(sl2, named.g))
            hats = list(u.hats)
            perm_on_hats = {i: hats.index(img) for i, img in enumerate(images)}
            # decompose into cycles
            seen, orbits = set(), []
            for i in range(6):
                if i in seen:
                    continue
                cyc = [i]
                j = perm_on_hats[i]
                while j != i:
                    cyc.append(j)
                    j = perm_on_hats[j]
                seen.update(cyc)
                orbits.append(len(cyc))
            assert sorted(orbits) == [3, 3]

    def test_frobenius_hat_orbits(self, sl2, unitals):
        phi = AutMap(sl2.one, 1)
        for name in ("classical8", "wu", "ou", "pu"):
            u = unitals[name]
            images = hat_image(u, phi)
            hats = list(u.hats)
            mapping = [hats.index(img) for img in images]
            # the first three hats form one orbit, the last three the other
            assert set(mapping[:3]) == {0, 1, 2}
            assert set(mapping[3:]) == {3, 4, 5}
            assert mapping[:3] != [0, 1, 2] or mapping[3:] != [3, 4, 5]


class TestStabilizers:
    def test_orders_labels_and_indices(self, unitals):
        for name, u in unitals.items():
            maps, desc = stabilizer_of_identity(u)
            order, label, full, index = EXPECTED[name]
            assert len(maps) == order
            assert desc.label == label
            assert full_aut_order(u) == full
            assert 27216 // full_aut_order(u) == index

    def test_stabilizer_closed_under_composition(self, sl2, unitals):
        maps, _ = stabilizer_of_identity(unitals["wu"])
        keys = {sl2.aut_perm(m).tobytes() for m in maps}
        rng = random.Random(12)
        for _ in range(30):
            a, b = rng.choice(maps), rng.choice(maps)
            assert sl2.aut_perm(sl2.compose_aut(a, b)).tobytes() in keys

    def test_small_group_labels(self, sl2, named):
        assert describe_aut_group(sl2, named.F).label == "C2"
        assert describe_aut_group(sl2, named.U).label == "C3"
        assert describe_aut_group(sl2, named.L).label == "C3"
        C_maps = tuple(
            AutMap(sl2.elements[i], 0) for i in sorted(sl2.cyclic_subgroup(1, 1))
        )
        desc = describe_aut_group(sl2, C_maps)
        assert desc.label == "C9"
        assert desc.cyclic

    def test_full_subgroup_stabilizer_label(self, sl2):
        desc = describe_aut_group(sl2, sl2.aut_stabilizer(sl2.cyclic_subgroup(1, 1)))
        assert desc.order == 54
        assert desc.label == "C9:C6"
        assert not desc.abelian

    def test_histogram_totals(self, sl2, unitals):
        _, desc = stabilizer_of_identity(unitals["ou"])
        assert sum(n for _, n in desc.element_orders) == desc.order


class TestIsomorphism:
    def test_all_catalog_pairs_distinct(self, unitals):
        names = list(unitals)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert are_isomorphic_affine(unitals[names[i]], unitals[names[j]]) is None

    def test_self_isomorphic_with_witness(self, unitals):
        u = unitals["wu"]
        w = are_isomorphic_affine(u, u)
        assert w is not None
        assert is_automorphism(u, w, full=True)

    def test_witness_maps_blocks(self, sl2, unitals):
        u = unitals["pu"]
        w = are_isomorphic_affine(u, u)
        perm = point_perm(sl2, w)
        for bid in list(u.blocks_through_identity)[:10]:
            image = tuple(sorted(int(perm[p]) for p in u.blocks[bid]))
            assert image in u.block_index

    def test_d1_conjugate_by_f_is_not_pu_block(self, sl2, unitals, named):
        # the witness computation behind the OU/PU refutation
        fi = sl2.idx(named.f)
        d1f = tuple(sorted(sl2.conj_idx(x, fi) for x in catalog.load("ou").bases[0]))
        assert d1f not in unitals["pu"].block_index

    def test_requires_shared_context(self, unitals):
        from sl2unitals.sl2q import sl2_context
        from sl2unitals.design import HatSystem, build_affine_unital

        other = sl2_context(2)
        tiny = build_affine_unital(
            HatSystem(other, other.cyclic_subgroup(1, 1), ())
        )
        with pytest.raises(ValueError):
            are_isomorphic_affine(unitals["wu"], tiny)


class TestParallelismTransport:
    def test_translations_preserve_both(self, sl2, unitals, parallelisms):
        rng = random.Random(13)
        for name in ("wu", "ou"):
            for h in rng.sample(range(504), 2):
                psi = UnitalMap(sl2.identity_aut, h)
                assert maps_parallelism(
                    psi, parallelisms[(name, "flat")], parallelisms[(name, "flat")]
                )
                assert maps_parallelism(
                    psi, parallelisms[(name, "natural")], parallelisms[(name, "natural")]
                )

    def test_identity_map(self, sl2, parallelisms):
        psi = UnitalMap(sl2.identity_aut, 0)
        assert maps_parallelism(psi, parallelisms[("wu", "flat")], parallelisms[("wu", "flat")])

    def test_no_stabilizer_map_swaps_flat_natural(self, sl2, unitals, parallelisms):
        for name in ("wu", "ou", "pu"):
            maps, _ = stabilizer_of_identity(unitals[name])
            fl, na = parallelisms[(name, "flat")], parallelisms[(name, "natural")]
            assert not any(
                maps_parallelism(UnitalMap(m, 0), fl, na) for m in maps
            )

    def test_composition_of_maps(self, sl2, unitals):
        # apply a, then b: the alphas compose, and a's translator moves by b
        u = unitals["wu"]
        maps, _ = stabilizer_of_identity(u)
        a = UnitalMap(maps[1], 17)
        b = UnitalMap(maps[2], 99)
        h = sl2.cayley[sl2.aut_perm(b.alpha)[a.translator], b.translator]
        ab = UnitalMap(sl2.compose_aut(a.alpha, b.alpha), int(h))
        pa, pb = point_perm(sl2, a), point_perm(sl2, b)
        assert np.array_equal(point_perm(sl2, ab), pb[pa])
        assert is_automorphism(u, ab, full=True)


class TestClosures:
    def test_six_nonclassical_closures_pairwise_distinct(self, unitals, parallelisms):
        keys = [(n, p) for n in ("wu", "ou", "pu") for p in ("flat", "natural")]
        for i in range(len(keys)):
            n1, p1 = keys[i]
            for j in range(i + 1, len(keys)):
                n2, p2 = keys[j]
                assert (
                    closures_isomorphic(
                        unitals[n1],
                        parallelisms[(n1, p1)],
                        unitals[n2],
                        parallelisms[(n2, p2)],
                    )
                    is False
                )

    def test_same_closure_isomorphic(self, unitals, parallelisms):
        assert closures_isomorphic(
            unitals["wu"],
            parallelisms[("wu", "flat")],
            unitals["wu"],
            parallelisms[("wu", "flat")],
        )

    def test_classical_refused(self, unitals, parallelisms):
        with pytest.raises(UnitalError, match="reduction not applicable"):
            closures_isomorphic(
                unitals["classical8"],
                parallelisms[("classical8", "flat")],
                unitals["wu"],
                parallelisms[("wu", "flat")],
            )

    def test_affine_automorphisms_extend_to_closures(self, sl2, unitals, closures):
        # the computable half of Aut(U) = Aut(closure): every affine
        # automorphism extends fixing the block at infinity
        maps, _ = stabilizer_of_identity(unitals["wu"])
        c = closures[("wu", "natural")]
        for m in (maps[1], maps[-1]):
            psi = UnitalMap(m, 42)
            ext = closed_point_map(c, psi)
            assert ext is not None and (c.block_image(ext) >= 0).all()
            inf = c.blocks[c.infinity_block_id]
            assert tuple(sorted(int(ext[p]) for p in inf)) == inf


class TestTranslations:
    def test_natural_closures_have_sylow_translations(self, sl2, closures):
        for name in ("wu", "ou", "pu"):
            c = closures[(name, "natural")]
            for si, syl in enumerate(sl2.sylow_subgroups):
                assert verify_translation(c, syl, c.ideal_point_of_sylow(si))

    def test_flat_closure_fails(self, sl2, closures):
        c = closures[("wu", "flat")]
        results = [
            verify_translation(c, syl, c.ideal_point_of_sylow(si))
            for si, syl in enumerate(sl2.sylow_subgroups)
        ]
        assert not any(results)

    def test_trivial_subgroup_vacuous(self, sl2, closures):
        c = closures[("wu", "natural")]
        assert verify_translation(c, frozenset({0}), c.ideal_point_of_sylow(0))


def reference_iso_alphas(u1, u2, perms) -> list[AutMap]:
    """Independent oracle for ``_iso_alphas`` and ``stabilizer_of_identity``:
    the per-map filter, S1 into S2 and then one ``block_image`` of the
    blocks through 1 per map (``perms`` holds each map's ``aut_perm``)."""
    s1, s2 = u1.system.subgroup, u2.system.subgroup
    return [
        m
        for m, perm in perms.items()
        if all(int(perm[s]) in s2 for s in s1)
        and (u1.block_image(perm, u1.blocks_through_identity, u2) >= 0).all()
    ]


def reference_maps_parallelism(image, pi1, pi2) -> bool:
    """Independent oracle for ``maps_parallelism``: under the block map
    ``image`` (per block of pi1's unital, a block id of pi2's), the image
    of each class of pi1, as a set of block ids, is a class of pi2."""
    targets = set(pi2.classes)
    return all(frozenset(image[list(cl)].tolist()) in targets for cl in pi1.classes)


#: The stabilizers of the identity as the per-map construction described them.
STABILIZER_GROUPS = {
    "classical8": GroupDescription(
        54, ((1, 1), (2, 9), (3, 8), (6, 18), (9, 18)), False, False, "C9:C6"
    ),
    "wu": GroupDescription(18, ((1, 1), (2, 3), (3, 8), (6, 6)), False, False, "C3:C6"),
    "ou": GroupDescription(27, ((1, 1), (3, 8), (9, 18)), False, False, "C9:C3"),
    "pu": GroupDescription(27, ((1, 1), (3, 8), (9, 18)), False, False, "C9:C3"),
}


class TestBatchOracles:
    @pytest.fixture(scope="class")
    def perms(self, sl2):
        return {m: sl2.aut_perm(m) for m in sl2.all_aut_maps}

    @pytest.fixture(scope="class")
    def copies(self, sl2):
        rng = random.Random(31)
        return {
            name: build_affine_unital(
                relabelled(sl2, catalog.load(name), rng.randrange(1512), rng.choices(range(9), k=6))
            )
            for name in CATALOG_NAMES
        }

    def test_stacked_block_image_matches_per_row_calls(self, sl2, unitals, closures):
        u, v = unitals["wu"], unitals["ou"]
        rows = [0, *random.Random(30).sample(range(1512), 20), *_iso_rows(u, u)[:5]]
        perms = sl2.aut_table[rows]
        through = u.blocks_through_identity
        for ids, target in ((None, None), (through, None), (through, v), ([5, 17, 3000], v)):
            stacked = u.block_image(perms, ids, target)
            assert np.array_equal(stacked, [u.block_image(p, ids, target) for p in perms])
        assert stacked.shape == (len(rows), 3)
        c = closures[("wu", "natural")]
        ext = np.hstack([perms, np.broadcast_to(np.arange(504, c.n_points), (len(rows), 9))])
        assert np.array_equal(c.block_image(ext), [c.block_image(p) for p in ext])

    def test_stabilizers_match_the_per_map_filter(self, unitals, copies, perms):
        for name in CATALOG_NAMES:
            for u in (unitals[name], copies[name]):
                maps, desc = stabilizer_of_identity(u)
                assert list(maps) == reference_iso_alphas(u, u, perms)
                assert desc == STABILIZER_GROUPS[name]

    def test_iso_alphas_match_the_per_map_filter(self, unitals, copies, perms):
        for a, b in product(CATALOG_NAMES, repeat=2):
            want = reference_iso_alphas(unitals[a], unitals[b], perms)
            assert _iso_alphas(unitals[a], unitals[b]) == want
            assert (a == b) == bool(want)
        for name in CATALOG_NAMES:
            u, cu = unitals[name], copies[name]
            for u1, u2 in ((u, cu), (cu, u)):
                want = reference_iso_alphas(u1, u2, perms)
                assert want and _iso_alphas(u1, u2) == want
                assert are_isomorphic_affine(u1, u2) == UnitalMap(want[0], 0)

    def test_maps_parallelism_matches_the_class_sets(self, sl2, unitals, parallelisms):
        seen = set()
        for n1, n2 in product(CATALOG_NAMES, repeat=2):
            u1, u2 = unitals[n1], unitals[n2]
            maps, _ = stabilizer_of_identity(u1)
            for alpha in (*maps, *_iso_alphas(u1, u2)):
                psi = UnitalMap(alpha, 0)
                image = u1.block_image(point_perm(sl2, psi), target=u2)
                for p1, p2 in product(("flat", "natural"), repeat=2):
                    pi1, pi2 = parallelisms[(n1, p1)], parallelisms[(n2, p2)]
                    got = maps_parallelism(psi, pi1, pi2)
                    assert got == reference_maps_parallelism(image, pi1, pi2)
                    seen.add(got)
        assert seen == {True, False}

    def test_no_state_left_on_the_group(self, sl2, unitals, parallelisms):
        closures_isomorphic(
            unitals["wu"], parallelisms[("wu", "flat")], unitals["ou"], parallelisms[("ou", "flat")]
        )
        assert not hasattr(sl2, "_transporter_cache")
        assert not hasattr(sl2, "_aut_perm_cache")
