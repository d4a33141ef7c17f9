"""Tests of the benchmark's own input generator and reference answers.

    python -m pytest perfbench/test_inputs.py -q
"""

import hashlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import inputs as ref  # noqa: E402

from sl2unitals import catalog, design, hatsearch, morphisms, onan, sl2q  # noqa: E402


@pytest.fixture(scope="module")
def group():
    return catalog.context()


@pytest.fixture(scope="module")
def systems(group):
    return {name: catalog.load(name, group) for name in ref.NAMES}


@pytest.fixture(scope="module")
def unitals(systems):
    return {name: design.build_affine_unital(s) for name, s in systems.items()}


def generate(group, systems, seed):
    return ref.generate(group, systems, sl2q.sl2_context(4).field, seed, catalog.serialize)


@pytest.mark.parametrize("seed", [1, 2])
def test_relabelled_copies(group, systems, unitals, seed):
    inp = generate(group, systems, seed)
    for name in ref.NAMES:
        copy = inp.copies[name]
        assert copy.subgroup != systems[name].subgroup or copy.bases != systems[name].bases
        assert all(design.check_Q(group, b) for b in copy.bases)
        assert design.check_P(copy)
        parsed, meta = catalog.parse(inp.copy_texts[name], group)
        assert (parsed.subgroup, parsed.bases, meta["name"]) == (copy.subgroup, copy.bases, name)
        assert catalog.serialize(parsed, name=name) == inp.copy_texts[name]
        u = design.build_affine_unital(parsed)
        assert design.verify_affine_unital(u).ok
        assert morphisms.are_isomorphic_affine(unitals[name], u) is not None
        maps, desc = morphisms.stabilizer_of_identity(u)
        assert (len(maps), desc.label) == ref.STABILIZER[name]


def test_same_seed_same_inputs(group, systems):
    a, b = generate(group, systems, 7), generate(group, systems, 7)
    assert a.copy_texts == b.copy_texts
    assert (a.affine_anchors, a.closed_anchors, a.ideal_anchors) == (
        b.affine_anchors, b.closed_anchors, b.ideal_anchors)
    assert a.q4_tori == b.q4_tori and a.cli == b.cli
    assert generate(group, systems, 8).copy_texts != a.copy_texts


def test_anchor_samples_and_tori(group, systems):
    inp = generate(group, systems, 3)
    n = group.order
    assert all(len(set(a)) == 4 and all(0 <= p < n for p in a)
               for a in inp.affine_anchors.values())
    assert all(len(set(a)) == 2 and all(0 <= p < n for p in a)
               for a in inp.closed_anchors.values())
    assert all(all(n <= p < n + 9 for p in a) for a in inp.ideal_anchors.values())
    assert sorted(inp.q4_tori) == ref.irreducible_tori(sl2q.sl2_context(4).field)
    assert len(inp.q4_tori) == 6


@pytest.mark.parametrize("seed", range(5))
def test_corrupted_determinant_is_reported_at_its_line(group, systems, seed):
    inp = generate(group, systems, seed)
    with pytest.raises(catalog.ParseError, match="determinant") as err:
        catalog.parse(inp.cli["bad_text"], group)
    assert err.value.line == inp.cli["bad_line"]


def test_quadruple_counts_match_the_scan(unitals):
    u = unitals["wu"]
    cl = design.close(u, design.natural_parallelism(u))
    per_affine = ref.quads_per_anchor([len(u.blocks[b]) for b in u.point_blocks[0]])
    per_closed = ref.quads_per_anchor([len(cl.blocks[b]) for b in cl.point_blocks[0]])
    assert (per_affine, per_closed) == (ref.QUADS_AFFINE, ref.QUADS_CLOSED)
    assert onan.count_onan_through(u, 0).checked == ref.QUADS_AFFINE
    assert onan.count_onan_through(cl, 0).checked == ref.QUADS_CLOSED


def test_onan_references_sample(unitals):
    u = unitals["ou"]
    cl = design.close(u, design.natural_parallelism(u))
    assert onan.count_onan_through(u, 17).count == ref.ONAN_THROUGH["ou", "affine"]
    assert onan.count_onan_through(cl, 505).count == ref.ONAN_THROUGH["ou", "natural-ideal"]


def test_symmetric_search_digest(group, unitals):
    named = catalog.constants(group)
    cfg = hatsearch.SearchConfig(constraints=(
        hatsearch.SymmetryConstraint((named.U[1],), "stabilize"),
        hatsearch.SymmetryConstraint((named.L[1],), "orbits", orbit_shape=(3, 3)),
    ))
    result = hatsearch.search(cfg)
    found = [design.build_affine_unital(s) for s in result.systems]
    assert len(found) == ref.SYMMETRIC_SEARCH_SYSTEMS
    for name in ref.NAMES:
        assert sum(morphisms.are_isomorphic_affine(unitals[name], f) is not None
                   for f in found) == 1
    text = "".join(catalog.serialize(s) for s in result.systems)
    assert hashlib.sha256(text.encode()).hexdigest() == ref.SYMMETRIC_SEARCH_SHA256

