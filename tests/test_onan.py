"""O'Nan configurations: the published examples, existence, counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2unitals import catalog, onan
from sl2unitals.design import (
    AffineUnital,
    _Incidence,
    build_affine_unital,
    close,
    flat_parallelism,
    natural_parallelism,
)
from sl2unitals.morphisms import UnitalMap, point_perm, stabilizer_of_identity
from sl2unitals.onan import (
    OnanConfig,
    _anchored_scan,
    contains_onan,
    count_onan_through,
    find_onan,
    verify_config,
)
from sl2unitals.sl2q import AutMap

Z = (1, 2, 4, 3, 6, 7, 5)  # codes of z^0..z^6


def idx_block(sl2, mats):
    return tuple(sorted(sl2.idx(m) for m in mats))


def g_power(sl2, k):
    gi = sl2.idx((4, 6, 6, 2))
    x = 0
    for _ in range(k):
        x = int(sl2.cayley[x, gi])
    return x


@pytest.fixture(scope="module")
def wu_paper_config(sl2):
    c_block = tuple(sorted(g_power(sl2, k) for k in range(9)))
    t_block = tuple(sorted(sl2.idx((1, x, 0, 1)) for x in range(8)))
    d2m = idx_block(
        sl2,
        [
            (6, 1, 1, 0), (0, 3, 6, 3), (1, 2, 0, 1), (4, 0, 2, 7), (4, 1, 4, 6),
            (2, 1, 4, 7), (0, 1, 1, 1), (6, 2, 0, 3), (1, 3, 6, 0),
        ],
    )
    d3m = idx_block(
        sl2,
        [
            (2, 3, 0, 5), (1, 1, 1, 0), (3, 6, 2, 2), (0, 3, 6, 4), (2, 1, 4, 7),
            (2, 0, 6, 5), (2, 2, 2, 7), (3, 2, 1, 1), (1, 4, 0, 1),
        ],
    )
    points = frozenset(
        {
            0,
            g_power(sl2, 6),
            g_power(sl2, 3),
            sl2.idx((1, 2, 0, 1)),
            sl2.idx((1, 4, 0, 1)),
            sl2.idx((2, 1, 4, 7)),
        }
    )
    return OnanConfig(blocks=(c_block, t_block, d2m, d3m), points=points)


@pytest.fixture(scope="module")
def ou_paper_config(sl2):
    c_block = tuple(sorted(g_power(sl2, k) for k in range(9)))
    d1 = idx_block(
        sl2,
        [
            (1, 0, 0, 1), (7, 1, 7, 5), (6, 4, 1, 4), (1, 2, 5, 0), (0, 2, 5, 4),
            (1, 6, 4, 4), (3, 7, 3, 1), (7, 6, 4, 6), (4, 0, 0, 7),
        ],
    )
    d2g = idx_block(
        sl2,
        [
            (4, 6, 6, 2), (6, 4, 1, 4), (3, 0, 3, 6), (7, 7, 3, 7), (5, 0, 1, 2),
            (5, 2, 3, 5), (7, 4, 5, 7), (1, 3, 6, 0), (4, 3, 0, 7),
        ],
    )
    d3m = idx_block(
        sl2,
        [
            (7, 4, 5, 7), (4, 0, 0, 7), (2, 4, 3, 3), (4, 1, 5, 1), (5, 2, 7, 3),
            (6, 3, 6, 0), (2, 6, 6, 4), (3, 4, 7, 0), (3, 2, 6, 2),
        ],
    )
    points = frozenset(
        {
            0,
            g_power(sl2, 1),
            g_power(sl2, 8),
            sl2.idx((6, 4, 1, 4)),
            sl2.idx((4, 0, 0, 7)),
            sl2.idx((7, 4, 5, 7)),
        }
    )
    return OnanConfig(blocks=(c_block, d1, d2g, d3m), points=points)


class TestVerifyConfig:
    def test_published_wu_configuration(self, unitals, wu_paper_config):
        assert verify_config(unitals["wu"], wu_paper_config) is True

    def test_published_ou_configuration(self, unitals, ou_paper_config):
        assert verify_config(unitals["ou"], ou_paper_config) is True

    def test_repeated_block_rejected(self, unitals, wu_paper_config):
        cfg = OnanConfig(
            blocks=(wu_paper_config.blocks[0],) + wu_paper_config.blocks[:3],
            points=wu_paper_config.points,
        )
        assert verify_config(unitals["wu"], cfg) is False

    def test_wrong_points_rejected(self, unitals, wu_paper_config):
        pts = set(wu_paper_config.points)
        pts.discard(0)
        pts.add(499)
        cfg = OnanConfig(blocks=wu_paper_config.blocks, points=frozenset(pts))
        assert verify_config(unitals["wu"], cfg) is False

    def test_foreign_blocks_rejected(self, unitals, wu_paper_config):
        assert verify_config(unitals["classical8"], wu_paper_config) is False
        off_the_points = wu_paper_config.blocks[:3] + ((0, 504),)
        cfg = OnanConfig(blocks=off_the_points, points=wu_paper_config.points)
        assert verify_config(unitals["wu"], cfg) is False

    def test_automorphism_image_is_a_configuration(self, sl2, unitals, wu_paper_config):
        maps, _ = stabilizer_of_identity(unitals["wu"])
        psi = UnitalMap(maps[1], 33)
        perm = point_perm(sl2, psi)
        moved = OnanConfig(
            blocks=tuple(
                tuple(sorted(int(perm[p]) for p in b)) for b in wu_paper_config.blocks
            ),
            points=frozenset(int(perm[p]) for p in wu_paper_config.points),
        )
        assert verify_config(unitals["wu"], moved) is True


class TestExistence:
    def test_nonclassical_contain(self, unitals):
        for name in ("wu", "ou", "pu"):
            assert contains_onan(unitals[name]) is True

    def test_classical_contains_none(self, unitals):
        assert contains_onan(unitals["classical8"]) is False

    def test_witness_verifies(self, unitals):
        for name in ("wu", "ou", "pu"):
            cfg = find_onan(unitals[name], anchor=0)
            assert cfg is not None
            assert verify_config(unitals[name], cfg)

    def test_closure_inherits_configurations(self, closures):
        assert contains_onan(closures[("wu", "natural")]) is True

    def test_count_answers_as_the_witness_scan(self, unitals):
        from sl2unitals.hatsearch import SearchConfig, search
        from sl2unitals.sl2q import sl2_context

        torus = sl2_context(4).default_torus()
        q4 = [build_affine_unital(s) for s in search(SearchConfig(q=4, torus_params=torus)).systems]
        assert q4
        for u in [*unitals.values(), *q4]:
            assert contains_onan(u) is (find_onan(u, anchor=0) is not None)

    def test_more_than_64_blocks_take_the_witness_scan(self, monkeypatch):
        """PG(6, 2) and PG(7, 2) lines posing as affine unitals: 63 lines
        through the identity take the count, 127 the witness scan."""
        pg6, pg7 = LinesAsAffine(projective_lines(6)), LinesAsAffine(projective_lines(7))
        with monkeypatch.context() as m:
            m.setattr(onan, "_anchored_scan", None)
            assert contains_onan(pg6) is True
        scan, witness_asked = onan._anchored_scan, []

        def spy(*args, want_witness=False, **kwargs):
            witness_asked.append(want_witness)
            return scan(*args, want_witness=want_witness, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(onan, "_mask_count", None)
            m.setattr(onan, "_anchored_scan", spy)
            assert contains_onan(pg7) is True
        assert witness_asked == [True]

    def test_empty_anchor_skips_the_witness_scan(self, unitals, monkeypatch):
        """classical8 has no configuration: the mask count at anchor 0 is 0,
        so the pair scan never runs."""
        scanned = []
        monkeypatch.setattr(onan, "_anchored_scan", lambda *args, **kwargs: scanned.append(args))
        assert find_onan(unitals["classical8"], anchor=0) is None
        assert scanned == []

    def test_fresh_structure_keeps_no_tuple_view(self, sl2):
        u = build_affine_unital(catalog.load("wu", sl2))
        assert contains_onan(u) is True
        assert count_onan_through(u, 0).count > 0
        cfg = find_onan(u, anchor=0)
        assert "blocks" not in u.__dict__
        assert verify_config(u, cfg)


class TestCounting:
    def test_counts_constant_on_translation_orbit(self, unitals):
        u = unitals["wu"]
        at_identity = count_onan_through(u, 0)
        assert at_identity.complete
        assert at_identity.count > 0
        for p in (17, 350):
            other = count_onan_through(u, p)
            assert other.count == at_identity.count

    def test_classical_counts_are_zero(self, unitals):
        res = count_onan_through(unitals["classical8"], 0)
        assert res.complete and res.count == 0

    def test_counts_through_witness_points(self, unitals):
        u = unitals["ou"]
        cfg = find_onan(u, anchor=0)
        for p in cfg.points:
            assert count_onan_through(u, p).count > 0

    def test_budget_exhaustion_flagged(self, unitals):
        res = count_onan_through(unitals["wu"], 0, budget=100)
        assert not res.complete
        assert res.checked <= 100

    def test_budget_deterministic(self, unitals):
        a = count_onan_through(unitals["wu"], 0, budget=50_000)
        b = count_onan_through(unitals["wu"], 0, budget=50_000)
        assert (a.count, a.checked) == (b.count, b.checked)

    @pytest.mark.parametrize("point", [-1, 504])
    def test_out_of_range_point_rejected(self, unitals, point):
        message = rf"point {point} is not in range\(504\)"
        with pytest.raises(ValueError, match=message):
            count_onan_through(unitals["wu"], point)
        with pytest.raises(ValueError, match=message):
            count_onan_through(unitals["wu"], point, budget=100)
        with pytest.raises(ValueError, match=message):
            find_onan(unitals["wu"], anchor=point)


def pair_scan(structure, anchor):
    """(count, complete, checked) from the block-pair scan."""
    return _anchored_scan(structure, anchor)[:3]


def unfiltered_find(structure):
    """The witness of the scan that tries every anchor in turn."""
    for a in range(structure.n_points):
        cfg = _anchored_scan(structure, a, want_witness=True)[3]
        if cfg is not None:
            return cfg
    return None


def sub_structure(structure, keep):
    """The structure on the same points with only the blocks where ``keep`` holds."""
    keep = np.asarray(keep, dtype=bool)
    return _Incidence(structure.n_points, structure.block_array[keep], structure.block_sizes[keep])


def projective_lines(dim):
    """The lines of PG(dim, 2): point v - 1 for each nonzero vector v of
    GF(2)^(dim + 1), and the line {x, y, x + y} through each two."""
    n = 2 ** (dim + 1) - 1
    pairs = ((x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1))
    lines = sorted({tuple(sorted((x - 1, y - 1, (x ^ y) - 1))) for x, y in pairs})
    return _Incidence(n, np.array(lines, dtype=np.int32), np.full(len(lines), 3, dtype=np.int32))


class LinesAsAffine(AffineUnital):
    """The blocks of an incidence structure under the affine unital type."""

    def __init__(self, structure):
        _Incidence.__init__(self, structure.n_points, structure.block_array, structure.block_sizes)


def projective_plane(p):
    """PG(2, p) for a prime p: points and lines the normalised nonzero vectors
    of GF(p)^3, the point x on the line l when x . l = 0."""
    vectors = [(1, y, z) for y in range(p) for z in range(p)] + [(0, 1, z) for z in range(p)]
    vectors = np.array(vectors + [(0, 0, 1)])
    on = (vectors @ vectors.T) % p == 0
    lines = np.array([np.flatnonzero(row) for row in on], dtype=np.int32)
    return _Incidence(len(vectors), lines, np.full(len(lines), p + 1, dtype=np.int32))


def reference_count(structure, anchor, join):
    """Configurations through the anchor, cell pair by cell pair.

    For each pair of blocks through the anchor, two cells (x, y) and
    (x', y') with x != x' and y != y' give a configuration when their
    joining blocks (from ``join``) share a point.
    """
    blocks = [set(b) for b in structure.blocks]
    through = structure.point_blocks[anchor]
    count = 0
    for i, b1 in enumerate(through):
        for b2 in through[i + 1 :]:
            cells = [(x, y) for x in blocks[b1] - {anchor} for y in blocks[b2] - {anchor}]
            for f, (x, y) in enumerate(cells):
                for x2, y2 in cells[f + 1 :]:
                    if x != x2 and y != y2 and join[x, y] & join[x2, y2]:
                        count += 1
    return count


class TestKernel:
    @pytest.fixture(scope="class")
    def q4_structures(self, q4_unital):
        u = q4_unital
        return {
            "affine": u,
            "flat": close(u, flat_parallelism(u)),
            "natural": close(u, natural_parallelism(u)),
        }

    @pytest.mark.parametrize("kind,total", [("affine", 46080), ("flat", 77760), ("natural", 63360)])
    def test_counts_match_reference_on_q4(self, q4_structures, kind, total):
        s = q4_structures[kind]
        join = {(x, y): set(b) for b in s.blocks for x in b for y in b if x != y}
        counts = [count_onan_through(s, p) for p in range(s.n_points)]
        assert all(c.complete for c in counts)
        assert [c.count for c in counts] == [reference_count(s, p, join) for p in range(s.n_points)]
        assert [tuple(c) for c in counts] == [pair_scan(s, p) for p in range(s.n_points)]
        # each configuration has six points, so it is counted at each of them
        assert sum(c.count for c in counts) == total
        assert total % 6 == 0

    def test_wu_witness_and_budgets_fixed(self, unitals):
        u = unitals["wu"]
        cfg = find_onan(u, anchor=0)
        assert cfg.blocks == (
            (0, 2, 65, 156, 174, 266, 302, 394, 412),
            (0, 1, 147, 202, 293, 348, 439, 494),
            (1, 2, 3, 4, 5, 6, 7, 8),
            (4, 75, 85, 156, 263, 333, 350, 445, 494),
        )
        assert cfg.points == frozenset({0, 1, 2, 4, 156, 494})
        assert tuple(count_onan_through(u, 0, budget=100)) == (0, False, 0)
        assert tuple(count_onan_through(u, 0, budget=50_000)) == (4787, False, 49784)
        assert tuple(count_onan_through(u, 0)) == (287496, True, 2942352)
        assert find_onan(u) == cfg  # the first anchor already has configurations

    def test_q8_counts_match_pair_scan(self, unitals, closures):
        ideal = range(504, 513)
        for (name, par), cl in closures.items():
            for p in (*ideal, 0, 250):
                assert tuple(count_onan_through(cl, p)) == pair_scan(cl, p), (name, par, p)
        for name, u in unitals.items():
            for p in (0, 1, 503):
                assert tuple(count_onan_through(u, p)) == pair_scan(u, p), (name, p)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_block_subsets_match_pair_scan(self, q4_structures, data):
        full = q4_structures[data.draw(st.sampled_from(sorted(q4_structures)))]
        size = len(full.blocks)
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        s = sub_structure(full, keep)
        anchors = data.draw(
            st.lists(st.integers(0, s.n_points - 1), min_size=1, max_size=4, unique=True)
        )
        for a in anchors:
            assert tuple(count_onan_through(s, a)) == pair_scan(s, a)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_find_skips_empty_anchors(self, q4_structures, data):
        full = q4_structures["flat"]
        size = len(full.blocks)
        keep = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        s = sub_structure(full, keep)
        assert find_onan(s) == unfiltered_find(s)

    def test_find_past_empty_anchors(self, q4_structures):
        full = q4_structures["flat"]
        # no block through points 0-2, so the first anchors carry no configuration
        s = sub_structure(full, ~np.isin(full.block_array, [0, 1, 2]).any(axis=1))
        assert [count_onan_through(s, p).count for p in range(3)] == [0, 0, 0]
        cfg = find_onan(s)
        assert cfg is not None and min(cfg.points) > 2
        assert cfg == unfiltered_find(s)

    def test_projective_lines_at_the_word_size(self, monkeypatch):
        """PG(6, 2) has 63 lines through a point, which fit one 64-bit mask;
        PG(7, 2) has 127, which take the pair scan.

        Any two lines through a point span a plane, and the 7 quadrilaterals
        of a Fano plane put 6 configurations through each of its points, so
        count = 6 * (planes through the point) = r(r - 1), which is also
        every quadruple checked.
        """
        pg6, pg7 = projective_lines(6), projective_lines(7)
        for s, r in ((pg6, 63), (pg7, 127)):
            assert {len(b) for b in s.point_blocks} == {r}
            want = (r * (r - 1), True, r * (r - 1))
            for p in (0, s.n_points // 2, s.n_points - 1):
                assert pair_scan(s, p) == want
        with monkeypatch.context() as m:
            m.setattr(onan, "_anchored_scan", None)
            assert tuple(count_onan_through(pg6, 0)) == (3906, True, 3906)
        with monkeypatch.context() as m:
            m.setattr(onan, "_mask_count", None)
            assert tuple(count_onan_through(pg7, 0)) == (16002, True, 16002)

    def test_projective_plane_with_wide_lines(self, monkeypatch):
        """PG(2, 17): lines of 18 points, so c reaches 17 and c(c - 1) = 272
        no longer fits popcount's uint8.

        Four lines no three of which are concurrent form a configuration,
        so a point of PG(2, p) lies on (p^2 + p) p^2 (p - 1)^2 / 4 of them.
        """
        p = 17
        plane = projective_plane(p)
        assert {len(b) for b in plane.point_blocks} == {p + 1}
        want = (p * p + p) * p * p * (p - 1) ** 2 // 4
        at_0 = pair_scan(plane, 0)
        assert at_0[:2] == (want, True)
        with monkeypatch.context() as m:
            m.setattr(onan, "_anchored_scan", None)
            for a in (0, 150, plane.n_points - 1):
                assert tuple(count_onan_through(plane, a)) == at_0
