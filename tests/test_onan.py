"""O'Nan configurations: the published examples, existence, counting."""

import pytest

from sl2unitals.design import close, flat_parallelism, natural_parallelism
from sl2unitals.morphisms import UnitalMap, point_perm, stabilizer_of_identity
from sl2unitals.onan import (
    OnanConfig,
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
