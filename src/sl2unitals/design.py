"""Affine SL(2,q)-unitals from hat systems, and their closures.

A hat system consists of a subgroup S of order q+1 together with q-2
arcuate base blocks D through the identity.  Writing D* for the set of
pairwise quotients {x * y^-1 : x != y in D}, the system is admissible when

  (Q)  every D* has the full q(q+1) distinct quotients, and
  (P)  S minus the identity, the q+1 punctured Sylow 2-subgroups and the
       sets D* partition the nonidentity elements of SL(2,q).

The affine unital then has point set SL(2,q) and blocks all right cosets
Sg, all right cosets of the Sylow subgroups ("short" blocks, size q) and
all right translates Dg of the base blocks.  Blocks are stored as the
sorted rows of an int array of element indices.

Closures: a parallelism groups the short blocks into q+1 classes of
pairwise disjoint blocks; adding one ideal point per class plus the block
of all ideal points yields a 2-(q^3+1, q+1, 1) design.  A parallelism is
one label array, the Sylow index of each short block's class, from which
the class list and the class of each block are derived.  The two built-in
parallelisms are "flat" (right cosets of a fixed Sylow subgroup form a
class) and "natural" (left cosets, i.e. the right coset Tg joins the
class of the conjugate of T by g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .sl2q import SL2


class UnitalError(Exception):
    """Base class for structural errors in this package."""


class PartitionError(UnitalError):
    """Condition (P) failed; carries the offending element index."""

    def __init__(self, message: str, witness: int | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class HatSystem:
    """Subgroup of order q+1 plus arcuate base blocks through 1."""

    group: SL2
    subgroup: frozenset[int]
    bases: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        q = self.group.field.q
        if len(self.subgroup) != q + 1:
            raise UnitalError(f"subgroup has order {len(self.subgroup)}, expected {q + 1}")
        for k, base in enumerate(self.bases):
            if 0 not in base:
                raise UnitalError(f"base {k} does not contain the identity")
            if len(base) != q + 1:
                raise UnitalError(f"base {k} has {len(base)} elements, expected {q + 1}")


class QuotientSet(NamedTuple):
    """Distinct quotients of a block, with the multiset cardinality."""

    elements: frozenset[int]
    multiset_size: int


def quotient_set(group: SL2, block: tuple[int, ...] | frozenset[int]) -> QuotientSet:
    """All pairwise quotients x * y^-1 over distinct x, y in the block."""
    idxs = list(block)
    cay = group.cayley
    inv = group.inverse_index
    out = set()
    for x in idxs:
        row = cay[x]
        for y in idxs:
            if x != y:
                out.add(int(row[inv[y]]))
    m = len(idxs)
    return QuotientSet(frozenset(out), m * (m - 1))


def check_Q(group: SL2, block: tuple[int, ...] | frozenset[int]) -> bool:
    """Condition (Q): the quotient map on the block is injective."""
    qs = quotient_set(group, block)
    return len(qs.elements) == qs.multiset_size


def _partition_parts(system: HatSystem):
    """The parts whose disjoint union condition (P) requires."""
    parts = [frozenset(system.subgroup) - {0}]
    for syl in system.group.sylow_subgroups:
        parts.append(frozenset(syl) - {0})
    for base in system.bases:
        parts.append(quotient_set(system.group, base).elements)
    return parts


def partition_witness(system: HatSystem) -> tuple[str, int] | None:
    """None if (P) holds, else ("uncovered"|"doubly-covered", element index)."""
    n = system.group.order
    count = np.zeros(n, dtype=np.int16)
    for part in _partition_parts(system):
        for x in part:
            count[x] += 1
    count[0] = 1  # the identity is excluded from the partition
    over = np.nonzero(count > 1)[0]
    if len(over):
        return ("doubly-covered", int(over[0]))
    under = np.nonzero(count == 0)[0]
    if len(under):
        return ("uncovered", int(under[0]))
    return None


def check_P(system: HatSystem) -> bool:
    """Condition (P): the quotient sets complete the group partition."""
    return partition_witness(system) is None


# ----------------------------------------------------------------------
# Incidence structures
# ----------------------------------------------------------------------
class _Incidence:
    """Shared lookup machinery for affine and closed structures.

    Incidence is held in two arrays: the blocks as the rows of the int32
    ``block_array``, and ``pair_block``, the block through each pair of
    points.  A block shorter than the longest repeats its last point, so
    every entry is a point of its own block; ``block_sizes`` has the
    lengths.  Two points lie on at most one block, so the pair table is
    enough to find the image of any block under a point map
    (``block_image``).  The tuple list ``blocks``, the table
    ``point_block_table`` of the blocks through each point and its
    per-point views ``point_blocks`` are derived from the arrays when
    asked for.
    """

    def __init__(self, n_points: int, block_array: np.ndarray, block_sizes: np.ndarray):
        self.n_points = n_points
        self.block_array = block_array
        self.block_sizes = block_sizes

    @cached_property
    def blocks(self) -> list[tuple[int, ...]]:
        """The blocks as sorted point tuples."""
        rows = self.block_array.tolist()
        return [tuple(row[:size]) for row, size in zip(rows, self.block_sizes.tolist())]

    @cached_property
    def block_index(self) -> dict[tuple[int, ...], int]:
        return {b: i for i, b in enumerate(self.blocks)}

    def _live(self) -> np.ndarray:
        """The points of every block, block by block, without the padding."""
        return self.block_array[np.arange(self.block_array.shape[1]) < self.block_sizes[:, None]]

    def degrees(self) -> np.ndarray:
        """The number of blocks through each point."""
        return np.bincount(self._live(), minlength=self.n_points)

    @cached_property
    def point_block_table(self) -> np.ndarray:
        """The blocks through each point as an (r x n) int32 table.

        Column p lists the ids of the blocks through p in ascending order,
        padded to the largest degree r with the sink id ``len(block_sizes)``.
        """
        n, n_blocks = self.n_points, len(self.block_sizes)
        live = self._live()
        bids = np.repeat(np.arange(n_blocks, dtype=np.int32), self.block_sizes)
        # a stable sort keeps the block ids of each point in ascending order; on
        # int16 keys numpy sorts by radix, about five times faster than on int32
        order = np.argsort(live.astype(np.int16) if n < 2**15 else live, kind="stable")
        degrees = np.bincount(live, minlength=n)
        table = np.full((degrees.max(initial=0), n), n_blocks, dtype=np.int32)
        table.T[np.arange(len(table)) < degrees[:, None]] = bids[order]
        return table

    @cached_property
    def point_blocks(self) -> list[np.ndarray]:
        """Per point, the ids of the blocks through it in ascending order
        (views into ``point_block_table``)."""
        columns = self.point_block_table.T
        degrees = (columns < len(self.block_sizes)).sum(axis=1).tolist()
        return [column[:d] for column, d in zip(columns, degrees)]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every point pair of every block, in one vectorised pass.

        Returns (xs, ys, bids): positions i < j of block bids[k] hold the
        points xs[k] and ys[k], listed block by block and (i, j) in
        row-major order.  ``pair_block`` and the unique-joining checks
        are both read from it.
        """
        rows, cols = np.triu_indices(self.block_array.shape[1], 1)
        live = cols < self.block_sizes[:, None]
        bids = np.repeat(np.arange(len(self.block_sizes), dtype=np.int32), live.sum(axis=1))
        return self.block_array[:, rows][live], self.block_array[:, cols][live], bids

    @cached_property
    def pair_block(self) -> np.ndarray:
        """pair_block[x, y] = id of the unique block through x and y.

        Requires AU4 / lambda = 1; -1 marks an uncovered pair and building
        raises on a doubly covered pair.  The ids are int16 while the
        block count allows, which halves the n x n table.
        """
        n = self.n_points
        xs, ys, bids = self._pairs()
        dtype = np.int16 if len(self.block_sizes) < 2**15 else np.int32
        table = np.full((n, n), -1, dtype=dtype)
        table[xs, ys] = bids
        table[ys, xs] = bids
        # a pair on two blocks keeps only one id, so the other reads back wrong
        clash = np.flatnonzero(table[xs, ys] != bids)
        if len(clash):
            k = clash[0]
            x, y = int(xs[k]), int(ys[k])
            raise UnitalError(f"points {x},{y} on blocks {int(bids[k])} and {int(table[x, y])}")
        return table

    def block_image(
        self,
        perm: np.ndarray,
        ids: Sequence[int] | None = None,
        target: _Incidence | None = None,
    ) -> np.ndarray:
        """Where the point map ``perm`` sends the blocks ``ids`` (default: all).

        For each block, the id of its image among the blocks of ``target``
        (default: this structure), or -1 where the image is not a block
        there.  Two points lie on at most one block, so the image can only
        be the block joining the images of the first two points; it is that
        block when the images of the other points lie on it too and the
        sizes agree.  A (k x n) stack of point maps gives a (k x len(ids))
        answer, one row per map.
        """
        target = self if target is None else target
        ids = slice(None) if ids is None else np.asarray(ids, dtype=np.intp)
        images = np.take(perm, self.block_array[ids], axis=-1)
        hits = target.pair_block[images[..., :1], images[..., 1:]]
        bid = hits[..., 0]
        ok = (hits == bid[..., None]).all(axis=-1) & (bid >= 0)
        # where bid is -1 the size read is the last block's, but ok is False
        ok &= target.block_sizes[bid] == self.block_sizes[ids]
        return np.where(ok, bid, -1)


class AffineUnital(_Incidence):
    """Block structure of a hat system, with the origin of each block.

    Block ``bid`` is the right translate of ``families[block_family[bid]]``
    by the element ``block_g[bid]``, where the families are S, the Sylow
    subgroups in order and the bases in order.  Blocks are numbered in the
    order (family, g) with repeats dropped.
    """

    def __init__(self, system: HatSystem):
        self.system = system
        self.group = group = system.group
        n, q = group.order, group.field.q
        families = [system.subgroup, *group.sylow_subgroups, *system.bases]
        rows = []
        for f in families:
            # row g is the translate by g; a short row repeats its last point
            translates = np.sort(group.cayley[sorted(f)].T, axis=1)
            rows.append(np.pad(translates, [(0, 0), (0, q + 1 - len(f))], "edge"))
        rows = np.concatenate(rows)
        # the first occurrence of each block, in the order of the rows
        first = np.sort(np.unique(rows, axis=0, return_index=True)[1])
        self.block_family, self.block_g = np.divmod(first, n)
        # Arcuate translates colliding with an existing block, which happens
        # exactly when a base has a nontrivial right stabilizer (never for
        # the built-in systems).
        self.duplicate_blocks = len(system.bases) * n - int((self.block_family > q + 1).sum())
        sizes = np.array([len(f) for f in families], dtype=np.int32)[self.block_family]
        super().__init__(n, rows[first], sizes)
        self.short_ids = np.flatnonzero(sizes == q)
        self.long_ids = np.flatnonzero(sizes == q + 1)

    @property
    def blocks_through_identity(self) -> np.ndarray:
        return self.point_blocks[0]

    @cached_property
    def hats(self) -> tuple[frozenset[int], ...]:
        """Per base, the block ids of its q+1 translates through 1."""
        through = self.blocks_through_identity
        family = self.block_family[through] - (self.group.field.q + 2)
        bases = range(len(self.system.bases))
        return tuple(frozenset(through[family == k].tolist()) for k in bases)


def build_affine_unital(system: HatSystem) -> AffineUnital:
    """Construct the unital after re-checking (Q) and (P)."""
    for k, base in enumerate(system.bases):
        if not check_Q(system.group, base):
            raise UnitalError(f"condition (Q) fails for base {k}")
    w = partition_witness(system)
    if w is not None:
        kind, x = w
        raise PartitionError(f"condition (P) fails: element {x} is {kind}", witness=x)
    return AffineUnital(system)


# ----------------------------------------------------------------------
# Verification reports
# ----------------------------------------------------------------------
@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append(CheckResult(name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _unique_joining_check(structure: _Incidence) -> tuple[bool, str]:
    n = structure.n_points
    xs, ys = structure._pairs()[:2]
    # blocks are sorted, so each pair is counted at (smaller, larger)
    counts = np.bincount(xs * n + ys, minlength=n * n).reshape(n, n)
    over = np.triu(counts > 1, 1)
    if over.any():
        x, y = divmod(int(over.argmax()), n)
        return False, f"pair ({x},{y}) on {int(counts[x, y])} blocks"
    under = np.triu(counts == 0, 1)
    if under.any():
        x, y = divmod(int(under.argmax()), n)
        return False, f"pair ({x},{y}) uncovered"
    return True, ""


def verify_affine_unital(unital: AffineUnital) -> Report:
    """Check axioms (AU1)-(AU5); failures carry a witness in the detail."""
    rep = Report()
    q = unital.group.field.q
    n = unital.n_points

    rep.counts["points"] = n
    rep.counts["blocks"] = len(unital.block_sizes)
    rep.counts["short"] = len(unital.short_ids)
    rep.counts["long"] = len(unital.long_ids)
    rep.counts["duplicates"] = unital.duplicate_blocks

    rep.add("AU1", n == q**3 - q, f"{n} points")
    sizes = unital.block_sizes
    bad = np.flatnonzero((sizes != q) & (sizes != q + 1))
    rep.add("AU2", not len(bad), f"block of size {sizes[bad[0]]}" if len(bad) else "")

    deg = unital.degrees()
    bad = np.flatnonzero(deg != q * q)
    rep.add("AU3", not len(bad), f"point {bad[0]} on {deg[bad[0]]} blocks" if len(bad) else "")

    ok, detail = _unique_joining_check(unital)
    rep.add("AU4", ok, detail)

    try:
        flat = flat_parallelism(unital)
        perr = parallelism_witness(unital, flat)
        rep.add("AU5", perr is None, perr or "flat parallelism exhibited")
    except UnitalError as exc:
        rep.add("AU5", False, str(exc))
    return rep


# ----------------------------------------------------------------------
# Parallelisms
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class Parallelism:
    """Partition of the short blocks into parallel classes, labelled by Sylow.

    ``label`` is the only state: the Sylow index of each short block, in
    ``unital.short_ids`` order, as a read-only int array.  The classes are
    the labels that occur, in ascending order; ``labels``, ``block_class``,
    ``classes`` and ``key`` are views derived from it.  Every short block
    lies in exactly one class, so the checks left to
    ``parallelism_witness`` are the shape and range of ``label``, the
    class count, the class sizes and disjointness.  (Arrays have no
    ``==``, so neither has this class; compare ``key``.)
    """

    unital: AffineUnital
    name: str
    label: np.ndarray

    def __post_init__(self):
        label = np.array(self.label)
        label.setflags(write=False)
        object.__setattr__(self, "label", label)

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """The Sylow index of each class, ascending."""
        # np.unique would import numpy.ma on its first call in a process
        counts = np.bincount(self.label, minlength=self.unital.group.field.q + 1)
        return tuple(np.flatnonzero(counts).tolist())

    @cached_property
    def block_class(self) -> np.ndarray:
        """Class index of each block id, -1 for blocks in no class.

        One entry longer than the block list, so that the block id -1 (no
        block) reads as no class as well.
        """
        out = np.full(len(self.unital.block_sizes) + 1, -1, dtype=np.int32)
        out[self.unital.short_ids] = np.searchsorted(self.labels, self.label)
        return out

    @cached_property
    def classes(self) -> tuple[frozenset[int], ...]:
        """The block ids of each class, in class order."""
        short = self.unital.short_ids
        return tuple(frozenset(short[self.label == t].tolist()) for t in self.labels)

    def class_image(
        self, perm: np.ndarray, target: Parallelism | None = None
    ) -> np.ndarray | None:
        """Per class, the class of ``target`` (default: this parallelism)
        into which the point map ``perm`` sends all of its blocks; None if
        some class is not sent into a single class of target."""
        target = self if target is None else target
        short = self.unital.short_ids
        src = self.block_class[short]
        dst = target.block_class[self.unital.block_image(perm, short, target.unital)]
        out = np.full(len(self.labels), -1, dtype=np.int32)
        out[src] = dst
        if (out < 0).any() or (out[src] != dst).any():
            return None
        return out

    @cached_property
    def key(self) -> frozenset[frozenset[int]]:
        return frozenset(self.classes)

    @cached_property
    def is_right_invariant(self) -> bool:
        """Whether every right translation permutes the classes.

        The translations sending each class into a single class are closed
        under composition, so they form a subgroup; it is all of SL(2,q)
        when it contains a generating set, and only those generators are
        checked.  Holds for both built-in parallelisms.
        """
        u = self.unital
        return all(
            self.class_image(u.group.cayley[:, h]) is not None
            for h in u.group.generators
        )


def parallelism_witness(unital: AffineUnital, par: Parallelism) -> str | None:
    """None if valid, else a description of the first violation.

    The label array comes first: integers, one per short block, each a
    Sylow index in 0..q.  Then the class count, then class by class its
    size and whether two of its blocks meet: one bincount of the class
    sizes and one of the (class, point) incidences of the short blocks.
    """
    q, n = unital.group.field.q, unital.n_points
    label, n_short = par.label, len(unital.short_ids)
    if label.dtype.kind not in "iu":
        return f"label has dtype {label.dtype}, expected integers"
    if label.shape != (n_short,):
        return f"label has shape {label.shape}, expected ({n_short},)"
    bad = np.flatnonzero((label < 0) | (label > q))
    if len(bad):
        return f"label {label[bad[0]]} at short block {bad[0]}, expected 0..{q}"
    if len(par.labels) != q + 1:
        return f"{len(par.labels)} classes, expected {q + 1}"
    cls = par.block_class[unital.short_ids]
    sizes = np.bincount(cls, minlength=q + 1)
    cells = cls[:, None] * n + unital.block_array[unital.short_ids, :q]
    hits = np.bincount(cells.ravel(), minlength=(q + 1) * n).reshape(q + 1, n)
    bad = np.flatnonzero((sizes != q * q - 1) | (hits > 1).any(axis=1))
    if not len(bad):
        return None
    ci = int(bad[0])
    if sizes[ci] != q * q - 1:
        return f"class {ci} has {sizes[ci]} blocks, expected {q * q - 1}"
    return f"class {ci} has intersecting blocks"


def flat_parallelism(unital: AffineUnital) -> Parallelism:
    """Short blocks grouped as right cosets of each Sylow subgroup."""
    return Parallelism(unital, "flat", unital.block_family[unital.short_ids] - 1)


def natural_parallelism(unital: AffineUnital) -> Parallelism:
    """Short blocks grouped as left cosets: Tg lands with T conjugated by g."""
    group = unital.group
    sylows = group.sylow_subgroups
    sylow_of = np.zeros(group.order, dtype=np.intp)
    for k, syl in enumerate(sylows):
        sylow_of[sorted(syl)] = k
    # Sylow subgroups meet only in 1, so T^g is the one holding t^g for any t != 1 in T
    t = np.array([min(syl - {0}) for syl in sylows])[unital.block_family[unital.short_ids] - 1]
    g = unital.block_g[unital.short_ids]
    conj = group.cayley[group.cayley[group.inverse_index[g], t], g]
    return Parallelism(unital, "natural", sylow_of[conj])


def parallelism_by_name(unital: AffineUnital, name: str) -> Parallelism:
    if name == "flat":
        return flat_parallelism(unital)
    if name == "natural":
        return natural_parallelism(unital)
    raise ValueError(f"unknown parallelism {name!r} (expected 'flat' or 'natural')")


# ----------------------------------------------------------------------
# Closures
# ----------------------------------------------------------------------
class ClosedUnital(_Incidence):
    """The closure of an affine unital by a parallelism.

    Ideal points get indices n, n+1, ... in class order; the final block
    is the block at infinity consisting of all ideal points.
    """

    def __init__(self, unital: AffineUnital, par: Parallelism):
        err = parallelism_witness(unital, par)
        if err is not None:
            raise UnitalError(f"invalid parallelism: {err}")
        self.affine = unital
        self.parallelism = par
        n, q = unital.n_points, unital.group.field.q
        n_points = n + len(par.labels)
        short = unital.short_ids
        # a short block's padding column q takes the ideal point of its class
        arr = unital.block_array.copy()
        arr[short, q] = n + par.block_class[short]
        self.infinity_block_id = len(arr)
        infinity = np.arange(n, n_points, dtype=np.int32)
        sizes = np.append(unital.block_sizes, n_points - n).astype(np.int32)
        sizes[short] += 1
        super().__init__(n_points, np.vstack([arr, infinity]), sizes)

    @cached_property
    def pair_block(self) -> np.ndarray:
        """The affine pair table extended to the ideal points.

        The closure keeps the affine block ids, so its table is the affine
        one plus (point, ideal point of a class) -> the short block of that
        class through the point, and two ideal points -> the block at
        infinity.  Each class covers every affine point once, so only the
        affine table can hold a doubly covered pair, and it raises the
        error the generic build (``_Incidence.pair_block``) would.
        """
        aff, n, q = self.affine, self.affine.n_points, self.affine.group.field.q
        dtype = np.int16 if len(self.block_sizes) < 2**15 else np.int32
        table = np.full((self.n_points, self.n_points), -1, dtype=dtype)
        table[:n, :n] = aff.pair_block
        short, cls = aff.short_ids, self.parallelism.block_class
        points, ideal = aff.block_array[short, :q], (n + cls[short])[:, None]
        table[points, ideal] = table[ideal, points] = short[:, None]
        table[n:, n:] = self.infinity_block_id
        np.fill_diagonal(table[n:, n:], -1)
        return table

    def ideal_point_of_sylow(self, sylow_index: int) -> int:
        return self.affine.n_points + self.parallelism.labels.index(sylow_index)


def close(unital: AffineUnital, par: Parallelism) -> ClosedUnital:
    return ClosedUnital(unital, par)


def verify_design(closed: ClosedUnital) -> Report:
    """Check the 2-(q^3+1, q+1, 1) design axioms for a closure."""
    rep = Report()
    q = closed.affine.group.field.q
    n = closed.n_points
    rep.counts["points"] = n
    rep.counts["blocks"] = len(closed.block_sizes)

    rep.add("points", n == q**3 + 1, f"{n} points")
    sizes = closed.block_sizes
    bad = np.flatnonzero(sizes != q + 1)
    rep.add("block-size", not len(bad), f"block of size {sizes[bad[0]]}" if len(bad) else "")
    deg = set(closed.degrees().tolist())
    rep.counts["replication"] = max(deg) if deg else 0
    rep.add("replication", deg == {q * q}, f"degrees {sorted(deg)}")
    ok, detail = _unique_joining_check(closed)
    rep.add("lambda1", ok, detail)
    return rep
