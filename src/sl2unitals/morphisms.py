"""Automorphisms and isomorphisms of affine SL(2,q)-unitals and closures.

Every isomorphism between affine SL(2,q)-unitals (q >= 3) factors as a
group automorphism alpha followed by a right translation rho_h, where
alpha carries the order-(q+1) subgroup of the source onto that of the
target.  Right translations are always automorphisms, so block-set
questions reduce to the action of alpha on the blocks through the
identity; the full-block check remains available as an oracle.

Every block question goes through ``block_image`` of the incidence
structures in :mod:`design`: the ids of the images of a set of blocks
under a point map, found in the pair table.
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

    def is_identity(self, group: SL2) -> bool:
        return self.translator == 0 and np.array_equal(
            group.aut_perm(self.alpha), np.arange(group.order)
        )


def point_perm(group: SL2, psi: UnitalMap) -> np.ndarray:
    """The map as a permutation of element indices."""
    return group.cayley[group.aut_perm(psi.alpha), psi.translator]


def compose_maps(group: SL2, a: UnitalMap, b: UnitalMap) -> UnitalMap:
    """Apply a, then b: translator transforms through b's alpha part."""
    alpha = group.compose_aut(a.alpha, b.alpha)
    h = group.cayley[group.apply_aut_idx(b.alpha, a.translator), b.translator]
    return UnitalMap(alpha, int(h))


def _maps_identity_blocks(
    unital: AffineUnital, alpha: AutMap, target: AffineUnital | None = None
) -> bool:
    """Whether alpha sends the blocks through 1 onto blocks of ``target``
    (default: the unital itself); alpha fixes 1, so these pass through 1."""
    perm = unital.group.aut_perm(alpha)
    return bool((unital.block_image(perm, unital.blocks_through_identity, target) >= 0).all())


def is_automorphism(unital: AffineUnital, psi: UnitalMap, full: bool = False) -> bool:
    """Block-set invariance of psi.

    Default mode tests only the blocks through the identity: translations
    are automorphisms and act transitively, so psi = alpha * rho_h
    preserves the block set iff alpha maps identity blocks to identity
    blocks.  ``full=True`` checks the image of every block instead.
    """
    if not full:
        return _maps_identity_blocks(unital, psi.alpha)
    return bool((unital.block_image(point_perm(unital.group, psi)) >= 0).all())


def stabilizer_of_identity(unital: AffineUnital) -> tuple[tuple[AutMap, ...], "GroupDescription"]:
    """All automorphisms of SL(2,q) fixing the unital with 1 fixed."""
    cached = getattr(unital, "_stabilizer_cache", None)
    if cached is not None:
        return cached
    group = unital.group
    candidates = group.aut_stabilizer(unital.system.subgroup)
    maps = tuple(m for m in candidates if _maps_identity_blocks(unital, m))
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

    def histogram(self) -> dict[int, int]:
        return dict(self.element_orders)


def describe_aut_group(group: SL2, maps: tuple[AutMap, ...]) -> GroupDescription:
    """Order, element-order histogram and a structure label.

    Labels are recognised for cyclic groups and for semidirect products
    of two cyclic groups (written "Ca:Cb", or "CaxCb" when the complement
    centralises), which covers every group occurring in this setting.
    Anything else reports "order N, unlabeled".
    """
    perms = [group.aut_perm(m) for m in maps]
    keys = {p.tobytes(): i for i, p in enumerate(perms)}
    n = len(perms)
    if len(keys) != n:
        raise ValueError("duplicate maps passed to describe_aut_group")
    mult = np.zeros((n, n), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, r in enumerate(perms):
            # apply i then j
            mult[i, j] = keys[r[p].tobytes()]
    ident = next(i for i, p in enumerate(perms) if np.array_equal(p, np.arange(group.order)))

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

    inv = np.zeros(n, dtype=np.int32)
    for i in range(n):
        for j in range(n):
            if mult[i, j] == ident:
                inv[i] = j
                break

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
def _transporter_maps(group: SL2, s1: frozenset[int], s2: frozenset[int]):
    """All automorphisms alpha with S1 * alpha = S2."""
    cache = getattr(group, "_transporter_cache", None)
    if cache is None:
        cache = group._transporter_cache = {}
    key = (s1, s2)
    if key not in cache:
        out = []
        for m in group.all_aut_maps:
            perm = group.aut_perm(m)
            if all(int(perm[s]) in s2 for s in s1):
                out.append(m)
        cache[key] = tuple(out)
    return cache[key]


def _iso_alphas(u1: AffineUnital, u2: AffineUnital) -> list[AutMap]:
    """All alpha in Aut(SL(2,q)) inducing isomorphisms u1 -> u2."""
    return [
        m
        for m in _transporter_maps(u1.group, u1.system.subgroup, u2.system.subgroup)
        if _maps_identity_blocks(u1, m, u2)
    ]


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
    u1 = pi1.unital
    image = u1.block_image(point_perm(u1.group, psi), target=pi2.unital)
    targets = set(pi2.classes)
    return all(frozenset(image[list(cl)].tolist()) in targets for cl in pi1.classes)


def _is_classical_like(unital: AffineUnital) -> bool:
    """Stabilizer equal to the full subgroup stabilizer in Aut(SL(2,q))."""
    maps, _ = stabilizer_of_identity(unital)
    return len(maps) == len(unital.group.aut_stabilizer(unital.system.subgroup))


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
    moved = closed.parallelism.class_image(aff.block_image(perm))
    if moved is None:
        return None
    ext = np.zeros(closed.n_points, dtype=np.int32)
    ext[: aff.n_points] = perm
    ext[aff.n_points :] = aff.n_points + moved
    return ext


def is_closed_automorphism(closed: ClosedUnital, psi: UnitalMap) -> bool:
    """Whether the extension of psi preserves the closed block set."""
    ext = closed_point_map(closed, psi)
    return ext is not None and bool((closed.block_image(ext) >= 0).all())


def verify_translation(closed: ClosedUnital, sylow: frozenset[int], center: int) -> bool:
    """Whether each rho_t, t in the Sylow subgroup, fixes all blocks
    through the given ideal point."""
    through = closed.point_blocks[center]
    for t in sorted(sylow):
        ext = closed_point_map(closed, UnitalMap(closed.affine.group.identity_aut, t))
        if ext is None or not np.array_equal(closed.block_image(ext, through), through):
            return False
    return True
