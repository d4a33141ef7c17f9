"""O'Nan configurations: four distinct blocks meeting in six distinct points.

In a structure with unique joining blocks, such a configuration is the
same as four blocks that pairwise intersect with no three through a
common point; the six pairwise intersection points are then distinct.
Classical unitals contain none, the three non-classical SL(2,8)-unitals
contain many.

The scan anchors a point a and takes each pair of blocks (B1, B2)
through a.  Each cell (x, y), with x on B1 and y on B2 away from a, has a
joining block J(x, y) = pair_block[x, y], which meets B1 only in x and
B2 only in y.  Two cells in different rows and columns give a
configuration exactly when their joining blocks meet, and then at a
point d off B1 and B2; cells in one row or column meet only in their
common x or y.  Two blocks share at most one point, so with k_d the
number of cells whose joining block passes through d, the block pair
carries the sum over d off B1 and B2 of C(k_d, 2) configurations.  One
bincount gives the k_d of a chunk of block pairs, reading only
``block_array`` and ``pair_block``.  A configuration through the anchor
has exactly two of its blocks through it, so it is counted once, which
makes the per-point counts well defined.  On an affine unital the right
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
    # The blocks as given, padded like block_array, mapped into the structure by the identity.
    width = max(map(len, blocks))
    padded = np.array([b + b[-1:] * (width - len(b)) for b in blocks], dtype=np.int32)
    given = _Incidence(n, padded, np.array([len(b) for b in blocks], dtype=np.int32))
    if (given.block_image(np.arange(n), target=structure) < 0).any():
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


_CHUNK = 256  # block pairs per bincount; bounds the temporaries (about 4 MB at q = 8)


def _anchored_scan(
    structure: _Incidence,
    anchor: int,
    budget: int | None = None,
    want_witness: bool = False,
):
    """Count configurations through the anchor; optionally stop at one.

    Returns (count, complete, checked, witness-or-None).  The enumeration
    order is fixed: block pairs ascending by id, cells in row-major order.
    The budget admits whole block pairs, each worth its quadruple count.
    """
    n, arr, sizes = structure.n_points, structure.block_array, structure.block_sizes
    width = arr.shape[1]
    # each block's points with the padding read as a sink point n, and a sink block last
    points_of = np.where(np.arange(width) < sizes[:, None], arr, n)
    points_of = np.vstack([points_of, np.full(width, n)])
    through = np.array(structure.point_blocks[anchor], dtype=np.intp)
    # the blocks through the anchor without it: -1 in its place and the padding's
    own = points_of[through]
    rows = np.where((own == anchor) | (own == n), -1, own)
    first, second = np.triu_indices(len(through), 1)
    ordered = (rows >= 0).sum(axis=1) * ((rows >= 0).sum(axis=1) - 1)  # (x, x') per block
    checked = np.cumsum(ordered[first] * ordered[second] // 2)
    stop = len(checked) if budget is None else int(np.searchsorted(checked, budget, "right"))
    count = 0
    for lo in range(0, stop, _CHUNK):
        pairs = np.arange(lo, min(lo + _CHUNK, stop))
        xs, ys = rows[first[pairs], :, None], rows[second[pairs], None, :]
        joined = np.where((xs >= 0) & (ys >= 0), structure.pair_block[xs, ys], -1)
        points = points_of[joined]
        keys = (np.arange(len(pairs))[:, None, None, None] * (n + 1) + points).ravel()
        k = np.bincount(keys, minlength=len(pairs) * (n + 1)).reshape(-1, n + 1)
        # only points off B1 and B2 count; the -1 entries clear the sink
        k[np.arange(len(pairs))[:, None], np.hstack([xs[..., 0], ys[:, 0]])] = 0
        per_pair = (k * (k - 1)).sum(axis=1) // 2
        if want_witness and per_pair.any():
            p = int(np.flatnonzero(per_pair)[0])
            # the least cell f1 with a partner, then its least partner f2
            cells = points[p].reshape(width * width, width)
            f1 = int(np.argmax((k[p][cells] >= 2).any(axis=1)))
            shared = np.isin(cells, cells[f1][k[p][cells[f1]] >= 2])
            shared[f1] = False
            f2 = int(np.argmax(shared.any(axis=1)))
            (r1, c1), (r2, c2) = divmod(f1, width), divmod(f2, width)
            four = (through[first[lo + p]], through[second[lo + p]], *joined[p].ravel()[[f1, f2]])
            d = cells[f2][shared[f2]][0]
            six = (anchor, d, xs[p, r1, 0], ys[p, 0, c1], xs[p, r2, 0], ys[p, 0, c2])
            cfg = OnanConfig(
                blocks=tuple(structure.blocks[b] for b in four),
                points=frozenset(int(v) for v in six),
            )
            return 1, False, int(checked[lo + p]), cfg
        count += int(per_pair.sum())
    return count, stop == len(checked), int(checked[stop - 1]) if stop else 0, None


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
