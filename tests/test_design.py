"""Hat systems, unital construction, axioms, parallelisms, closures."""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2unitals import catalog
from sl2unitals.design import (
    AffineUnital,
    HatSystem,
    Parallelism,
    PartitionError,
    UnitalError,
    _Incidence,
    build_affine_unital,
    check_P,
    check_Q,
    close,
    flat_parallelism,
    natural_parallelism,
    parallelism_witness,
    partition_witness,
    quotient_set,
    verify_affine_unital,
    verify_design,
)
from sl2unitals.morphisms import UnitalMap, closed_point_map, point_perm, stabilizer_of_identity
from sl2unitals.sl2q import AutMap, sl2_context

G = (4, 6, 6, 2)


def tuple_level_quotients(group, block):
    """Oracle built on 2x2 matrix arithmetic over the field instead of the
    index tables; returns the quotient list with multiplicities."""
    f = group.field

    def times(x, y):
        return (
            f.mul(x[0], y[0]) ^ f.mul(x[1], y[2]),
            f.mul(x[0], y[1]) ^ f.mul(x[1], y[3]),
            f.mul(x[2], y[0]) ^ f.mul(x[3], y[2]),
            f.mul(x[2], y[1]) ^ f.mul(x[3], y[3]),
        )

    elems = [group.elements[i] for i in block]
    out = []
    for x in elems:
        for y in elems:
            if x != y:
                # in characteristic 2 the inverse of (a, b; c, d) is (d, b; c, a)
                out.append(times(x, (y[3], y[1], y[2], y[0])))
    return out


class TestQuotients:
    def test_two_element_block(self, sl2):
        x = sl2.idx(G)
        qs = quotient_set(sl2, (0, x))
        assert qs.elements == {x, int(sl2.inverse_index[x])}
        assert qs.multiset_size == 2

    def test_catalog_bases_have_72_distinct(self, sl2):
        for name in catalog.NAMES:
            for base in catalog.load(name).bases:
                qs = quotient_set(sl2, base)
                assert qs.multiset_size == 72
                assert len(qs.elements) == 72
                oracle = tuple_level_quotients(sl2, base)
                assert len(set(oracle)) == 72
                assert {sl2.idx(t) for t in oracle} == qs.elements

    def test_subgroup_block_fails_Q(self, sl2):
        C = tuple(sorted(sl2.cyclic_subgroup(1, 1)))
        assert check_Q(sl2, C) is False

    def test_order_three_powers_repeat(self, sl2):
        x = next(i for i in range(sl2.order) if sl2.order_of_idx(i) == 3)
        block = (0, x, int(sl2.cayley[x, x]))
        qs = quotient_set(sl2, block)
        assert len(qs.elements) < qs.multiset_size


class TestPartition:
    def test_catalog_systems_pass(self, sl2):
        for name in catalog.NAMES:
            assert check_P(catalog.load(name)) is True

    def test_size_bookkeeping(self):
        assert 8 + 9 * 7 + 6 * 72 == 503

    def test_mixed_bases_fail(self, sl2):
        wu = catalog.load("wu")
        classical = catalog.load("classical8")
        mixed = HatSystem(sl2, wu.subgroup, wu.bases[:5] + (classical.bases[3],))
        assert check_P(mixed) is False
        kind, witness = partition_witness(mixed)
        assert kind in ("uncovered", "doubly-covered")
        assert 0 < witness < sl2.order

    def test_build_rejects_bad_partition(self, sl2):
        wu = catalog.load("wu")
        broken = HatSystem(sl2, wu.subgroup, wu.bases[:5] + (wu.bases[4],))
        with pytest.raises(PartitionError) as err:
            build_affine_unital(broken)
        assert err.value.witness is not None


class TestConstruction:
    def test_block_counts(self, unitals):
        for u in unitals.values():
            assert len(u.blocks) == 3647
            assert len(u.short_ids) == 567
            assert len(u.long_ids) == 3080
            assert u.duplicate_blocks == 0

    def test_every_point_on_64_blocks(self, unitals):
        u = unitals["wu"]
        assert all(len(pb) == 64 for pb in u.point_blocks)

    def test_flag_identity(self, unitals):
        u = unitals["ou"]
        assert sum(len(b) for b in u.blocks) == 504 * 64
        assert 504 * 64 == 567 * 8 + 3080 * 9

    def test_hats_have_nine_blocks(self, unitals):
        for u in unitals.values():
            assert len(u.hats) == 6
            assert all(len(h) == 9 for h in u.hats)

    def test_joining_identity_and_g_is_torus(self, sl2, unitals):
        u = unitals["wu"]
        block = u.blocks[u.pair_block[0, sl2.idx(G)]]
        assert set(block) == set(u.system.subgroup)

    def test_joining_within_sylow(self, sl2, unitals):
        u = unitals["wu"]
        x = sl2.idx((1, 1, 0, 1))
        block = u.blocks[u.pair_block[0, x]]
        assert set(block) in [set(s) for s in sl2.sylow_subgroups]

    def test_joining_uses_arcuate_block(self, sl2, unitals):
        # for s in D1 minus identity the joining block is the hat translate
        u = unitals["wu"]
        base = u.system.bases[0]
        s = sorted(base)[1]
        bid = u.pair_block[0, s]
        # the families are S, the nine Sylow subgroups, then the bases
        assert u.block_family[bid] == 1 + len(sl2.sylow_subgroups)
        assert bid in u.hats[0]

    def test_pair_table_diagonal_is_empty(self, unitals):
        # no block joins a point to itself
        assert (np.diagonal(unitals["wu"].pair_block) == -1).all()


def oracle_image(source, perm, target=None):
    """Block images looked up one at a time by their sorted point tuples."""
    target = source if target is None else target
    return [
        target.block_index.get(tuple(sorted(int(perm[p]) for p in b)), -1) for b in source.blocks
    ]


def perm_sending(n, src, dst):
    """A permutation of range(n) sending src[i] to dst[i]."""
    perm = np.empty(n, dtype=np.int32)
    perm[list(src) + [p for p in range(n) if p not in src]] = list(dst) + [
        p for p in range(n) if p not in dst
    ]
    return perm


def random_perm(rng, n):
    return np.array(rng.sample(range(n), n))


def sample_maps(unital, rng):
    """Right translations and automorphisms (alpha * rho_h) of the unital."""
    group = unital.group
    maps, _ = stabilizer_of_identity(unital)
    psis = [UnitalMap(group.identity_aut, h) for h in rng.sample(range(group.order), 3)]
    return psis + [UnitalMap(m, rng.randrange(group.order)) for m in maps[:4]]


class TestBlockImage:
    """block_image against the sort-and-lookup oracle."""

    def assert_matches(self, structure, perm, target=None):
        image = structure.block_image(perm, target=target)
        assert image.tolist() == oracle_image(structure, perm, target)
        ids = list(range(0, len(structure.blocks), 7))
        assert structure.block_image(perm, ids, target).tolist() == image[ids].tolist()
        return image

    @pytest.mark.parametrize("q", [4, 8])
    def test_affine(self, q, unitals, q4_unital):
        rng = random.Random(q)
        for u in unitals.values() if q == 8 else [q4_unital]:
            for psi in sample_maps(u, rng):
                assert (self.assert_matches(u, point_perm(u.group, psi)) >= 0).all()
            for _ in range(3):
                assert (self.assert_matches(u, random_perm(rng, u.n_points)) < 0).any()

    @pytest.mark.parametrize("q", [4, 8])
    def test_closed(self, q, closures, q4_unital):
        rng = random.Random(q)
        if q == 8:
            structures = [closures[("wu", "flat")], closures[("ou", "natural")]]
        else:
            pars = (flat_parallelism(q4_unital), natural_parallelism(q4_unital))
            structures = [close(q4_unital, par) for par in pars]
        for c in structures:
            for psi in sample_maps(c.affine, rng):
                ext = closed_point_map(c, psi)
                if ext is not None:
                    assert (self.assert_matches(c, ext) >= 0).all()
            self.assert_matches(c, random_perm(rng, c.n_points))

    def test_non_automorphism_and_other_target(self, sl2, unitals, named):
        perm = sl2.aut_perm(AutMap(named.g, 0))
        assert (self.assert_matches(unitals["wu"], perm) < 0).any()
        perm = sl2.aut_perm(AutMap(named.f, 0))
        image = self.assert_matches(unitals["ou"], perm, target=unitals["pu"])
        assert (image >= 0).any() and (image < 0).any()

    def test_short_block_onto_part_of_long_block(self, unitals, q4_unital):
        for u in (unitals["wu"], q4_unital):
            short, long_ = u.short_ids[0], u.long_ids[0]
            src = u.blocks[short]
            perm = perm_sending(u.n_points, src, u.blocks[long_][: len(src)])
            image = self.assert_matches(u, perm)
            assert image[short] == -1

    @settings(max_examples=50, deadline=None)
    @given(perm=st.permutations(range(60)))
    def test_random_permutations_q4(self, q4_unital, perm):
        assert q4_unital.n_points == 60
        self.assert_matches(q4_unital, np.array(perm))


def reference_incidence(system):
    """The affine blocks straight from the definition, as tuples.

    For each family (S, the Sylow subgroups, the bases) and each g in
    order, the block sorted(family * g), keeping the first occurrence.
    Returns the blocks, the family index and translator g of each block,
    and the number of dropped base translates.
    """
    group = system.group
    families = [system.subgroup, *group.sylow_subgroups, *system.bases]
    blocks, origin, index, dropped = [], [], set(), 0
    for f, fam in enumerate(families):
        for g in range(group.order):
            block = tuple(sorted(int(group.cayley[x, g]) for x in fam))
            if block in index:
                dropped += f > group.field.q + 1
                continue
            index.add(block)
            blocks.append(block)
            origin.append((f, g))
    return blocks, origin, dropped


def reference_point_blocks(n, blocks):
    out = [[] for _ in range(n)]
    for bid, block in enumerate(blocks):
        for p in block:
            out[p].append(bid)
    return out


def assert_point_blocks(structure, blocks):
    """``point_block_table`` and ``point_blocks`` against the reference lists:
    ascending ids, sink padding, int32."""
    want = reference_point_blocks(structure.n_points, blocks)
    sink = len(structure.block_sizes)
    depth = max(map(len, want), default=0)
    padded = [pb + [sink] * (depth - len(pb)) for pb in want]
    table = structure.point_block_table
    assert table.dtype == np.int32
    assert table.shape == (depth, structure.n_points)
    assert table.T.tolist() == padded
    assert all(pb.dtype == np.int32 for pb in structure.point_blocks)
    assert [pb.tolist() for pb in structure.point_blocks] == want


def assert_same_table(got, want):
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


class TestIncidenceOracle:
    """The array-built structures against the tuple-level definition."""

    @pytest.fixture(params=["q2", "q4", "wu", "repeated"])
    def affine(self, request, unitals, q4_unital):
        if request.param == "q2":
            group = sl2_context(2)
            return build_affine_unital(HatSystem(group, group.cyclic_subgroup(1, 1), ()))
        if request.param == "repeated":
            # S as its own base: every translate repeats a coset of S
            s = q4_unital.system.subgroup
            return AffineUnital(HatSystem(q4_unital.group, s, (tuple(sorted(s)),)))
        return q4_unital if request.param == "q4" else unitals["wu"]

    def assert_structure(self, structure, blocks):
        assert structure.blocks == blocks
        assert structure.block_sizes.tolist() == [len(b) for b in blocks]
        assert_point_blocks(structure, blocks)

    def test_affine(self, affine):
        q = affine.group.field.q
        blocks, origin, dropped = reference_incidence(affine.system)
        self.assert_structure(affine, blocks)
        assert affine.short_ids.tolist() == [i for i, b in enumerate(blocks) if len(b) == q]
        assert affine.long_ids.tolist() == [i for i, b in enumerate(blocks) if len(b) == q + 1]
        assert affine.duplicate_blocks == dropped
        assert dropped == (affine.n_points if len(affine.system.bases) == 1 else 0)
        hats = [
            frozenset(i for i, b in enumerate(blocks) if 0 in b and origin[i][0] == q + 2 + k)
            for k in range(len(affine.system.bases))
        ]
        assert list(affine.hats) == hats

    def test_closures(self, affine):
        group, q, n = affine.group, affine.group.field.q, affine.n_points
        blocks, origin, _ = reference_incidence(affine.system)
        sylows = list(group.sylow_subgroups)
        labels = {"flat": {}, "natural": {}}
        for bid, (f, g) in enumerate(origin):
            if len(blocks[bid]) == q:
                labels["flat"][bid] = f - 1
                conj = frozenset(group.conj_idx(t, g) for t in sylows[f - 1])
                labels["natural"][bid] = sylows.index(conj)
        for name, build in (("flat", flat_parallelism), ("natural", natural_parallelism)):
            par = build(affine)
            want = sorted(set(labels[name].values()))
            assert list(par.labels) == want
            assert list(par.classes) == [
                frozenset(b for b, t in labels[name].items() if t == label) for label in want
            ]
            closed = close(affine, par)
            ideal = {b: n + want.index(t) for b, t in labels[name].items()}
            infinity = tuple(range(n, n + q + 1))
            closed_blocks = [b + (ideal[i],) if i in ideal else b for i, b in enumerate(blocks)]
            self.assert_structure(closed, closed_blocks + [infinity])
            assert_same_table(closed.pair_block, _Incidence.pair_block.func(closed))
            assert closed.n_points == n + q + 1
            assert closed.infinity_block_id == len(blocks)
            assert closed.block_array[-1].tolist() == list(infinity)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_point_blocks_of_block_subsets(self, q4_unital, data):
        """Some blocks of a q = 4 structure, so that the points have
        different degrees and some lie on no block."""
        build = data.draw(st.sampled_from([None, flat_parallelism, natural_parallelism]))
        full = q4_unital if build is None else close(q4_unital, build(q4_unital))
        size = len(full.block_sizes)
        keep = np.array(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        sub = _Incidence(full.n_points, full.block_array[keep], full.block_sizes[keep])
        assert_point_blocks(sub, [b for b, kept in zip(full.blocks, keep) if kept])


class TestVerification:
    def test_catalog_passes(self, unitals):
        for name, u in unitals.items():
            rep = verify_affine_unital(u)
            assert rep.ok, (name, rep.checks)
            assert rep.counts["points"] == 504
            assert rep.counts["blocks"] == 3647

    def test_dropping_a_block_fails(self, unitals):
        u = unitals["wu"]
        broken = AffineUnital(u.system)
        dropped = tuple(broken.block_array[-1, : broken.block_sizes[-1]])
        # drop the last row of the primary arrays; the tuple views follow them
        broken.block_array = broken.block_array[:-1]
        broken.block_sizes = broken.block_sizes[:-1]
        broken.block_family = broken.block_family[:-1]
        broken.block_g = broken.block_g[:-1]
        broken.short_ids = np.flatnonzero(broken.block_sizes == 8)
        broken.long_ids = np.flatnonzero(broken.block_sizes == 9)
        assert len(broken.blocks) == 3646
        rep = verify_affine_unital(broken)
        assert not rep.ok
        failed = {c.name for c in rep.checks if not c.ok}
        assert failed & {"AU3", "AU4"}
        assert len(dropped) in (8, 9)

    def test_q2_degenerate_system(self):
        # q = 2 admits the empty collection of arcuate blocks
        group = sl2_context(2)
        system = HatSystem(group, group.cyclic_subgroup(1, 1), ())
        assert check_P(system)
        u = build_affine_unital(system)
        rep = verify_affine_unital(u)
        assert rep.ok
        assert rep.counts["points"] == 6
        assert rep.counts["blocks"] == 2 + 9


def reference_parallelism_witness(unital, par):
    """Independent oracle for ``parallelism_witness``: the class-by-class
    set loops over ``classes``, with the checks that a label array makes
    unreachable (non-short, repeated and uncovered blocks) kept, after a
    scan for labels that name no Sylow subgroup."""
    q = unital.group.field.q
    for i, t in enumerate(par.label.tolist()):
        if not 0 <= t <= q:
            return f"label {t} at short block {i}, expected 0..{q}"
    if len(par.classes) != q + 1:
        return f"{len(par.classes)} classes, expected {q + 1}"
    placed: set[int] = set()
    for ci, cl in enumerate(par.classes):
        if len(cl) != q * q - 1:
            return f"class {ci} has {len(cl)} blocks, expected {q * q - 1}"
        covered: set[int] = set()
        for bid in cl:
            if unital.block_sizes[bid] != q:
                return f"class {ci} contains non-short block {bid}"
            b = unital.block_array[bid, :q].tolist()
            if covered.intersection(b):
                return f"class {ci} has intersecting blocks"
            covered.update(b)
        if placed.intersection(cl):
            return f"class {ci} repeats a block"
        placed.update(cl)
    if placed != set(unital.short_ids.tolist()):
        return "classes do not cover all short blocks"
    return None


class TestParallelisms:
    def test_both_valid(self, unitals, parallelisms):
        for name, u in unitals.items():
            for par in ("flat", "natural"):
                assert parallelism_witness(u, parallelisms[(name, par)]) is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_witness_matches_reference(self, unitals, q4_unital, data):
        """Perturbed label arrays: unchanged, one block moved (possibly into
        a new class), two blocks swapped, two classes merged."""
        u = data.draw(st.sampled_from([q4_unital, unitals["wu"]]))
        base = data.draw(st.sampled_from([flat_parallelism, natural_parallelism]))(u)
        label = base.label.copy()
        q, k = u.group.field.q, len(label)
        kind = data.draw(st.sampled_from(["unchanged", "move", "swap", "merge"]))
        if kind == "move":
            label[data.draw(st.integers(0, k - 1))] = data.draw(st.integers(0, q + 1))
        elif kind == "swap":
            i, j = data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
            label[[i, j]] = label[[j, i]]
        elif kind == "merge":
            a, b = data.draw(st.lists(st.integers(0, q), min_size=2, max_size=2, unique=True))
            label[label == a] = b
        par = Parallelism(u, base.name, label)
        got = parallelism_witness(u, par)
        assert got == reference_parallelism_witness(u, par)
        assert (got is None) == np.array_equal(label, base.label)

    def test_label_is_the_only_state(self, parallelisms):
        p = parallelisms[("wu", "natural")]
        assert [f.name for f in dataclasses.fields(p)] == ["unital", "name", "label"]
        assert not p.label.flags.writeable
        assert len(p.label) == len(p.unital.short_ids)
        assert (p.block_class[p.unital.short_ids] >= 0).all()
        assert (np.delete(p.block_class, p.unital.short_ids) == -1).all()

    def test_flat_differs_from_natural(self, parallelisms):
        for name in catalog.NAMES:
            assert parallelisms[(name, "flat")].key != parallelisms[(name, "natural")].key

    def test_sylow_block_in_its_own_class(self, sl2, unitals, parallelisms):
        # T = T*1 = 1*T lies in the class labelled by T either way
        u = unitals["wu"]
        for par in ("flat", "natural"):
            p = parallelisms[("wu", par)]
            for si, syl in enumerate(sl2.sylow_subgroups):
                bid = u.block_index[tuple(sorted(syl))]
                ci = p.labels.index(si)
                assert bid in p.classes[ci]

    def test_right_translation_preserves_block_set(self, sl2, unitals):
        u = unitals["ou"]
        rng = random.Random(9)
        for h in rng.sample(range(504), 3):
            ids = rng.sample(range(len(u.blocks)), 80)
            assert (u.block_image(sl2.cayley[:, h], ids) >= 0).all()

    def test_right_invariance(self, parallelisms):
        assert parallelisms[("wu", "flat")].is_right_invariant
        assert parallelisms[("wu", "natural")].is_right_invariant


class TestClosure:
    def test_parameters(self, closures):
        for (name, par), c in closures.items():
            rep = verify_design(c)
            assert rep.ok, (name, par, rep.checks)
            assert rep.counts["points"] == 513
            assert rep.counts["blocks"] == 3648
            assert rep.counts["replication"] == 64

    def test_extended_blocks_have_nine_points(self, closures):
        c = closures[("wu", "flat")]
        assert all(len(b) == 9 for b in c.blocks)

    def test_round_trip_removal(self, closures, unitals):
        c = closures[("wu", "natural")]
        u = unitals["wu"]
        affine_blocks = set()
        for bid, b in enumerate(c.blocks):
            if bid == c.infinity_block_id:
                continue
            affine_blocks.add(tuple(p for p in b if p < 504))
        assert affine_blocks == set(u.blocks)

    def test_removing_infinity_breaks_ideal_joining(self, closures):
        c = closures[("wu", "flat")]
        i1, i2 = c.affine.n_points, c.affine.n_points + 1
        joined = [b for b in c.blocks if i1 in b and i2 in b]
        assert joined == [c.blocks[c.infinity_block_id]]

    def test_pair_table_extends_the_affine_one(self, closures):
        """The closure's table against the generic build from its blocks
        (the q = 2 and q = 4 closures: ``TestIncidenceOracle.test_closures``)."""
        for c in closures.values():
            assert_same_table(c.pair_block, _Incidence.pair_block.func(c))

    def test_pair_table_rejects_a_doubly_covered_pair(self, q4_unital):
        group = q4_unital.group
        sylow = group.sylow_subgroups[0]
        # a base holding a Sylow subgroup: its pairs there lie on a short block too
        base = tuple(sorted(sylow | {min(set(range(group.order)) - sylow)}))
        u = AffineUnital(HatSystem(group, q4_unital.system.subgroup, (base,)))
        c = close(u, flat_parallelism(u))
        with pytest.raises(UnitalError) as generic:
            _Incidence.pair_block.func(c)
        assert str(generic.value).startswith("points ")
        with pytest.raises(UnitalError) as extended:
            c.pair_block
        assert str(extended.value) == str(generic.value)

    def test_invalid_parallelism_rejected(self, unitals, parallelisms):
        u = unitals["wu"]
        p = parallelisms[("wu", "flat")]
        # the last class merged into the first
        label = np.where(p.label == p.labels[-1], p.labels[0], p.label)
        broken = Parallelism(u, p.name, label)
        with pytest.raises(UnitalError, match="invalid parallelism"):
            close(u, broken)

    @pytest.mark.parametrize("change", ["short", "long", "negative", "above_q", "float"])
    def test_invalid_label_array_rejected(self, unitals, parallelisms, change):
        u = unitals["wu"]
        label = parallelisms[("wu", "flat")].label
        broken = {
            "short": label[:-1],  # one entry short
            "long": np.append(label, 0),  # one entry too many
            "negative": label - 1,  # a -1 for the first Sylow subgroup
            "above_q": np.where(np.arange(len(label)) == 5, 9, label),  # q + 1
            "float": label.astype(float),
        }[change]
        with pytest.raises(UnitalError, match="invalid parallelism: label"):
            close(u, Parallelism(u, "x", broken))
