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

A full count at an anchor with at most 64 blocks through it (every
unital with q <= 8) goes point by point instead, with bitsets.  Let
beta(p) be the rank of J(a, p) among the blocks through a, and give each
block L off a the mask S(L) of the beta(p) over its points: the blocks
through a that L meets, each in one point.  The two blocks of a
configuration off a, L3 and L4, meet in one point d, and the blocks
through a that meet both away from d are those of
S(L3) & S(L4) without beta(d).  Any two of them complete the
configuration, so with c that count

    count(a) = sum over d != a, over pairs {L3, L4} through d, of C(c, 2).

One popcount per block pair through each point gives it.  The blocks
through each point come from the structure's cached
``point_block_table``, so a count builds only the masks of its anchor.
Existence on an affine unital is this count at the identity being
nonzero.  The pair scan still answers budgeted counts, witnesses and
anchors with more than 64 blocks, and it defines the order in which
budgets admit block pairs.
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
                blocks=tuple(tuple(arr[b, : sizes[b]].tolist()) for b in four),
                points=frozenset(int(v) for v in six),
            )
            return 1, False, int(checked[lo + p]), cfg
        count += int(per_pair.sum())
    return count, stop == len(checked), int(checked[stop - 1]) if stop else 0, None


def _mask_count(structure: _Incidence, anchor: int) -> int:
    """Configurations through the anchor, point by point (module docstring).

    Needs at most 64 blocks through the anchor, one bit of a uint64 each.
    """
    n_blocks = len(structure.block_sizes)
    through = structure.point_blocks[anchor]
    # bit[p] = 1 << beta(p); 0 at the anchor and at points not joined to it (pair_block -1)
    rank_bit = np.zeros(n_blocks + 1, dtype=np.uint64)
    rank_bit[through] = np.uint64(1) << np.arange(len(through), dtype=np.uint64)
    bit = rank_bit[structure.pair_block[anchor]]
    # S(L) for every block, then 0 for a sink block; a padded row repeats a point, which
    # the OR ignores
    masks = np.append(np.bitwise_or.reduce(bit[structure.block_array], axis=1), np.uint64(0))
    # column d: S(L) without beta(d) for the blocks L through d, padded with the sink.  A
    # block through the anchor has the one bit beta(d) at each other point d of it, which
    # leaves it 0, and the anchor's own column holds disjoint single bits: neither counts.
    table = masks[structure.point_block_table] & ~bit
    # c is at most the width of a block, so with blocks of at most 16 points c(c - 1) <= 240
    # stays exact in popcount's uint8
    wide = structure.block_array.shape[1] > 16
    # the pairs (i, i + k) of blocks through each point, one offset k at a time
    twice = 0  # sum of c(c - 1) = 2 C(c, 2)
    for k in range(1, len(table)):
        c = np.bitwise_count(table[:-k] & table[k:])
        if wide:
            c = c.astype(np.uint16)
        twice += int((c * (c - 1)).sum(dtype=np.uint64))
    return twice // 2


def _quadruples(structure: _Incidence, anchor: int) -> int:
    """The pair scan's ``checked`` for a whole anchor: over the pairs of
    blocks through it, the cell pairs (x, y), (x', y') with x != x', y != y'."""
    away = structure.block_sizes[structure.point_blocks[anchor]].astype(np.int64) - 1
    ordered = (away * (away - 1)).tolist()  # (x, x') per block, as Python ints
    total = sum(ordered)
    return (total * total - sum(o * o for o in ordered)) // 4


def _check_point(structure: _Incidence, point) -> None:
    if not 0 <= point < structure.n_points:
        raise ValueError(f"point {point} is not in range({structure.n_points})")


def find_onan(structure: _Incidence, anchor: int | None = None) -> OnanConfig | None:
    """A witness configuration, or None (scanning all points if no anchor).

    The witness scan runs only at anchors with more than 64 blocks through
    them or a nonzero mask count, so the full scan finds its witness at
    the first point whose count is nonzero, as the unfiltered scan would.
    """
    if anchor is not None:
        _check_point(structure, anchor)
    for a in range(structure.n_points) if anchor is None else (anchor,):
        if len(structure.point_blocks[a]) > 64 or _mask_count(structure, a):
            witness = _anchored_scan(structure, a, want_witness=True)[3]
            if witness is not None:
                return witness
    return None


def contains_onan(structure: _Incidence, exhaustive: bool = False) -> bool:
    """Existence of an O'Nan configuration.

    For an affine unital the answer is anchored at the identity unless
    ``exhaustive`` is set: translations are automorphisms acting
    transitively on points, so some configuration exists iff one passes
    through the identity.  It is the mask count there, or the witness scan
    with more than 64 blocks through the identity.  Other structures are
    scanned over all points.
    """
    if isinstance(structure, AffineUnital) and not exhaustive:
        if len(structure.point_blocks[0]) <= 64:
            return count_onan_through(structure, 0).count > 0
        return find_onan(structure, anchor=0) is not None
    return find_onan(structure, anchor=None) is not None


def count_onan_through(structure: _Incidence, point: int, budget: int | None = None) -> OnanCount:
    """Number of configurations whose six points include the given point.

    Without a budget and with at most 64 blocks through the point the
    mask count answers, else the pair scan; both report the same
    ``checked``, the pair scan's quadruples for the block pairs admitted.
    """
    _check_point(structure, point)
    if budget is None and len(structure.point_blocks[point]) <= 64:
        return OnanCount(_mask_count(structure, point), True, _quadruples(structure, point))
    count, complete, checked, _ = _anchored_scan(structure, point, budget=budget)
    return OnanCount(count, complete, checked)
