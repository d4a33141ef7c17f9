"""O'Nan configurations: four distinct blocks meeting in six distinct points.

In a structure with unique joining blocks, such a configuration is the
same as four blocks that pairwise intersect with no three through a
common point; the six pairwise intersection points are then distinct.
Classical unitals contain none, the three non-classical SL(2,8)-unitals
contain many.

The scan anchors a point a, runs over block pairs (B1, B2) through a,
picks x != x' on B1 and y != y' on B2 (all away from a) and tests whether
the joining blocks of (x, y) and (x', y') meet; every degenerate case is
excluded automatically, so a hit is exactly a configuration.  Each
configuration containing the anchor is found exactly once, which makes
the per-point counts well defined.  On an affine unital the right
translations act transitively on points, so existence scans may anchor
at the identity; closed unitals are scanned over every point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .design import AffineUnital, _Incidence


@dataclass(frozen=True)
class OnanConfig:
    """Four block point-tuples and the six intersection points."""

    blocks: tuple[tuple[int, ...], ...]
    points: frozenset[int]


class OnanCount(NamedTuple):
    count: int
    complete: bool
    checked: int  # candidate quadruples examined


def verify_config(structure: _Incidence, config: OnanConfig) -> bool:
    """Full check of the defining incidences inside the structure."""
    n = structure.n_points
    blocks = [tuple(sorted(b)) for b in config.blocks]
    if len(set(blocks)) != 4 or not all(len(b) > 1 and 0 <= b[0] and b[-1] < n for b in blocks):
        return False
    # The blocks as given, mapped into the structure by the identity.
    if (_Incidence(n, blocks).block_image(np.arange(n), target=structure) < 0).any():
        return False
    meets = []
    sets = [set(b) for b in blocks]
    for i in range(4):
        for j in range(i + 1, 4):
            common = sets[i] & sets[j]
            if len(common) != 1:
                return False
            meets.append(common.pop())
    if len(set(meets)) != 6:
        return False
    if len(config.points) != 6:
        return False
    return set(meets) == set(config.points)


_valid_mask_cache: dict[tuple[int, int], np.ndarray] = {}


def _valid_mask(nx: int, ny: int) -> np.ndarray:
    """Cell pairs ((i,j),(k,l)) with i != k and j != l, as a flat mask."""
    key = (nx, ny)
    mask = _valid_mask_cache.get(key)
    if mask is None:
        f = np.arange(nx * ny)
        rows = f // ny
        cols = f % ny
        mask = (rows[:, None] != rows[None, :]) & (cols[:, None] != cols[None, :])
        _valid_mask_cache[key] = mask
    return mask


def _anchored_scan(
    structure: _Incidence,
    anchor: int,
    budget: int | None = None,
    want_witness: bool = False,
):
    """Count configurations through the anchor; optionally stop at one.

    Returns (count, complete, checked, witness-or-None).  The enumeration
    order is fixed: block pairs ascending by id, cells in row-major order.
    """
    pair_block = structure.pair_block
    meet = structure.blocks_meet
    blocks = structure.blocks
    pb = structure.point_blocks[anchor]
    count = 0
    checked = 0
    for i1 in range(len(pb)):
        b1 = pb[i1]
        xs = np.array([p for p in blocks[b1] if p != anchor], dtype=np.int32)
        for i2 in range(i1 + 1, len(pb)):
            b2 = pb[i2]
            ys = np.array([p for p in blocks[b2] if p != anchor], dtype=np.int32)
            valid = _valid_mask(len(xs), len(ys))
            n_quads = int(valid.sum()) // 2
            if budget is not None and checked + n_quads > budget:
                return count, False, checked, None
            checked += n_quads
            joined = pair_block[np.ix_(xs, ys)].ravel()
            hits = meet[joined[:, None], joined[None, :]] & valid
            if want_witness and hits.any():
                f1, f2 = np.argwhere(hits)[0]
                ny = len(ys)
                x, y = int(xs[f1 // ny]), int(ys[f1 % ny])
                x2, y2 = int(xs[f2 // ny]), int(ys[f2 % ny])
                b3, b4 = int(joined[f1]), int(joined[f2])
                d = (set(blocks[b3]) & set(blocks[b4])).pop()
                cfg = OnanConfig(
                    blocks=(blocks[b1], blocks[b2], blocks[b3], blocks[b4]),
                    points=frozenset({anchor, d, x, y, x2, y2}),
                )
                return 1, False, checked, cfg
            count += int(hits.sum()) // 2
    return count, True, checked, None


def find_onan(structure: _Incidence, anchor: int | None = None) -> OnanConfig | None:
    """A witness configuration, or None (scanning all points if no anchor)."""
    anchors = range(structure.n_points) if anchor is None else (anchor,)
    for a in anchors:
        _, _, _, cfg = _anchored_scan(structure, a, want_witness=True)
        if cfg is not None:
            return cfg
    return None


def contains_onan(structure: _Incidence, exhaustive: bool = False) -> bool:
    """Existence of an O'Nan configuration.

    For an affine unital the scan anchors at the identity unless
    ``exhaustive`` is set: translations are automorphisms acting
    transitively on points, so some configuration exists iff one passes
    through the identity.  Other structures are scanned over all points.
    """
    if isinstance(structure, AffineUnital) and not exhaustive:
        return find_onan(structure, anchor=0) is not None
    return find_onan(structure, anchor=None) is not None


def count_onan_through(structure: _Incidence, point: int, budget: int | None = None) -> OnanCount:
    """Number of configurations whose six points include the given point."""
    count, complete, checked, _ = _anchored_scan(structure, point, budget=budget)
    return OnanCount(count, complete, checked)
