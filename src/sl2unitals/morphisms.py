"""Automorphisms and isomorphisms of affine SL(2,q)-unitals and closures.

Every isomorphism between affine SL(2,q)-unitals (q >= 3) factors as a
group automorphism alpha followed by a right translation rho_h, where
alpha carries the order-(q+1) subgroup of the source onto that of the
target.  Right translations are always automorphisms, so block-set
questions reduce to the action of alpha on the blocks through the
identity; the full-block check remains available as an oracle.

Stabilizers and isomorphisms take their candidates alpha as rows of
``SL2.aut_table``: the transporter of the subgroups, then one stacked
``block_image`` call (of the incidence structures in :mod:`design`: the
ids of the images of a set of blocks under each point map, found in the
pair table) over all candidate rows at once.  Parallelism questions go
through ``Parallelism.class_image``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import AffineUnital, ClosedUnital, Parallelism, UnitalError
from .sl2q import SL2, AutMap


@dataclass(frozen=True)
class UnitalMap:
    """Point map x -> apply(alpha, x) * translator."""

    alpha: AutMap
    translator: int  # element index of h in rho_h


def point_perm(group: SL2, psi: UnitalMap) -> np.ndarray:
    """The map as a permutation of element indices."""
    return group.cayley[group.aut_perm(psi.alpha), psi.translator]


def _iso_rows(u1: AffineUnital, u2: AffineUnital) -> np.ndarray:
    """The rows of ``aut_table`` whose automorphisms induce isomorphisms
    u1 -> u2: those carrying S1 onto S2 (the transporter) and the blocks
    of u1 through 1 onto blocks of u2, found by one stacked
    ``block_image`` over the transporter's rows."""
    group = u1.group
    rows = group.aut_transporter(u1.system.subgroup, u2.system.subgroup)
    images = u1.block_image(group.aut_table[rows], u1.blocks_through_identity, u2)
    return rows[(images >= 0).all(axis=1)]


def is_automorphism(unital: AffineUnital, psi: UnitalMap, full: bool = False) -> bool:
    """Block-set invariance of psi.

    Default mode tests only the blocks through the identity: translations
    are automorphisms and act transitively, so psi = alpha * rho_h
    preserves the block set iff alpha maps identity blocks to identity
    blocks.  ``full=True`` checks the image of every block instead.
    """
    if full:
        return bool((unital.block_image(point_perm(unital.group, psi)) >= 0).all())
    perm = unital.group.aut_perm(psi.alpha)
    return bool((unital.block_image(perm, unital.blocks_through_identity) >= 0).all())


def stabilizer_of_identity(unital: AffineUnital) -> tuple[tuple[AutMap, ...], "GroupDescription"]:
    """All automorphisms of SL(2,q) fixing the unital with 1 fixed."""
    cached = getattr(unital, "_stabilizer_cache", None)
    if cached is not None:
        return cached
    group = unital.group
    maps = tuple(group.all_aut_maps[i] for i in _iso_rows(unital, unital))
    desc = describe_aut_group(group, maps)
    unital._stabilizer_cache = (maps, desc)
    return maps, desc


def full_aut_order(unital: AffineUnital) -> int:
    """Order of the full automorphism group: stabilizer times |SL(2,q)|."""
    maps, _ = stabilizer_of_identity(unital)
    return len(maps) * unital.group.order


# ----------------------------------------------------------------------
# Structure recognition for the small groups occurring here
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupDescription:
    order: int
    element_orders: tuple[tuple[int, int], ...]  # (order, count), sorted
    cyclic: bool
    abelian: bool
    label: str


def describe_aut_group(group: SL2, maps: tuple[AutMap, ...]) -> GroupDescription:
    """Order, element-order histogram and a structure label.

    Labels are recognised for cyclic groups and for semidirect products
    of two cyclic groups (written "Ca:Cb", or "CaxCb" when the complement
    centralises), which covers every group occurring in this setting.
    Anything else reports "order N, unlabeled".
    """
    rows = np.array([group.aut_row(m) for m in maps], dtype=np.intp)
    n = len(rows)
    if len(set(rows.tolist())) != n:
        raise ValueError("duplicate maps passed to describe_aut_group")
    # an automorphism is fixed by its images of the generators, so one
    # gather gives the key of every product: composed[j, i] is "apply i, then j"
    perms, gens = group.aut_table[rows], list(group.generators)
    radix = group.order ** np.arange(len(gens), dtype=np.int64)
    keys = {key: i for i, key in enumerate((perms[:, gens] @ radix).tolist())}
    composed = perms[:, perms[:, gens]] @ radix
    mult = np.array([[keys[key] for key in row] for row in composed.T.tolist()])
    ident = rows.tolist().index(0)

    def elt_order(i: int) -> int:
        k, x = 1, i
        while x != ident:
            x = int(mult[x, i])
            k += 1
        return k

    orders = [elt_order(i) for i in range(n)]
    hist: dict[int, int] = {}
    for o in orders:
        hist[o] = hist.get(o, 0) + 1
    cyclic = n in orders or n == 1
    abelian = bool(np.array_equal(mult, mult.T))

    inv = (mult == ident).argmax(axis=1)

    def cyc(i: int) -> frozenset[int]:
        out = {ident}
        x = i
        while x != ident:
            out.add(x)
            x = int(mult[x, i])
        return frozenset(out)

    def is_normal(sub: frozenset[int]) -> bool:
        return all(int(mult[int(mult[inv[g], s]), g]) in sub for g in range(n) for s in sub)

    def centralises(j: int, sub_gen: int) -> bool:
        return mult[j, sub_gen] == mult[sub_gen, j]

    label = f"order {n}, unlabeled"
    if n == 1:
        label = "C1"
    elif cyclic:
        label = f"C{n}"
    else:
        # Try the decompositions the setting uses first, then generically.
        pairs = [(9, 6), (3, 6), (9, 3)]
        pairs += [
            (a, n // a)
            for a in sorted((d for d in range(2, n) if n % d == 0), reverse=True)
            if (a, n // a) not in pairs and n // a > 1
        ]
        done = False
        for a, b in pairs:
            if done or hist.get(a, 0) == 0 or hist.get(b, 0) == 0:
                continue
            normals = []
            seen_subs = set()
            for i in range(n):
                if orders[i] == a:
                    sub = cyc(i)
                    if sub not in seen_subs:
                        seen_subs.add(sub)
                        if is_normal(sub):
                            normals.append((i, sub))
            for gen_i, sub in normals:
                for j in range(n):
                    if orders[j] == b and len(cyc(j) & sub) == 1:
                        sep = "x" if centralises(j, gen_i) else ":"
                        label = f"C{a}{sep}C{b}"
                        done = True
                        break
                if done:
                    break
    return GroupDescription(
        order=n,
        element_orders=tuple(sorted(hist.items())),
        cyclic=cyclic,
        abelian=abelian,
        label=label,
    )


# ----------------------------------------------------------------------
# Isomorphism of affine unitals
# ----------------------------------------------------------------------
def _iso_alphas(u1: AffineUnital, u2: AffineUnital) -> list[AutMap]:
    """All alpha in Aut(SL(2,q)) inducing isomorphisms u1 -> u2."""
    return [u1.group.all_aut_maps[i] for i in _iso_rows(u1, u2)]


def are_isomorphic_affine(u1: AffineUnital, u2: AffineUnital) -> UnitalMap | None:
    """A witness isomorphism, or None.

    After normalising with a translation so that the identity maps to the
    identity, every isomorphism is induced by a group automorphism
    carrying S1 to S2; those are scanned exhaustively.
    """
    if u1.group is not u2.group:
        raise ValueError("unitals must share the same SL(2,q) context")
    if u1.group.field.q < 3:
        raise ValueError("isomorphism reduction requires q >= 3")
    alphas = _iso_alphas(u1, u2)
    if not alphas:
        return None
    return UnitalMap(alphas[0], 0)


# ----------------------------------------------------------------------
# Parallelisms and closures
# ----------------------------------------------------------------------
def maps_parallelism(psi: UnitalMap, pi1: Parallelism, pi2: Parallelism) -> bool:
    """Whether psi carries each class of pi1 onto a class of pi2."""
    return pi1.class_image(point_perm(pi1.unital.group, psi), pi2) is not None


def _is_classical_like(unital: AffineUnital) -> bool:
    """Stabilizer equal to the full subgroup stabilizer in Aut(SL(2,q))."""
    maps, _ = stabilizer_of_identity(unital)
    subgroup = unital.system.subgroup
    return len(maps) == len(unital.group.aut_transporter(subgroup, subgroup))


def closures_isomorphic(
    u1: AffineUnital, pi1: Parallelism, u2: AffineUnital, pi2: Parallelism
) -> bool:
    """Isomorphism of the two closures.

    Valid for non-classical unitals of order >= 3, whose closures have
    every automorphism fixing the block at infinity; then the closures
    are isomorphic iff some affine isomorphism transports pi1 to pi2.
    Both parallelisms must be invariant under right translations (true
    for flat and natural), which reduces the translation part away.
    """
    if _is_classical_like(u1) or _is_classical_like(u2):
        raise UnitalError(
            "reduction not applicable: closure comparison of classical unitals is unsupported"
        )
    if not pi1.is_right_invariant or not pi2.is_right_invariant:
        raise UnitalError("closure comparison requires translation-invariant parallelisms")
    for alpha in _iso_alphas(u1, u2):
        if maps_parallelism(UnitalMap(alpha, 0), pi1, pi2):
            return True
    return False


def closed_point_map(closed: ClosedUnital, psi: UnitalMap) -> np.ndarray | None:
    """Extension of an affine automorphism to the closure, or None.

    The affine part moves by psi; the ideal point of a class goes to the
    ideal point of the image class, provided psi permutes the classes.
    """
    aff = closed.affine
    perm = point_perm(aff.group, psi)
    moved = closed.parallelism.class_image(perm)
    if moved is None:
        return None
    ext = np.zeros(closed.n_points, dtype=np.int32)
    ext[: aff.n_points] = perm
    ext[aff.n_points :] = aff.n_points + moved
    return ext


def verify_translation(closed: ClosedUnital, sylow: frozenset[int], center: int) -> bool:
    """Whether each rho_t, t in the Sylow subgroup, fixes all blocks
    through the given ideal point."""
    through = closed.point_blocks[center]
    for t in sorted(sylow):
        ext = closed_point_map(closed, UnitalMap(closed.affine.group.identity_aut, t))
        if ext is None or not np.array_equal(closed.block_image(ext, through), through):
            return False
    return True
