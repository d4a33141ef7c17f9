"""Exhaustive search for hat systems.

The search runs in two stages.  First a depth-first enumeration finds the
candidate arcuate base blocks: subsets D of size q+1 through the identity
whose quotient sets D* are injective (condition (Q)) and stay inside the
residue universe (the group minus the subgroup and the Sylow conjugates).
Candidates are canonicalised per hat: D and each translate D*d^-1 share
the same quotient set, and only the lexicographically least translate is
emitted.  Second, condition (P) becomes an exact cover problem over the
residue universe with the candidate quotient sets as rows, solved by an
Algorithm-X style solver with minimum-branching column selection.

Both hot loops work on Python-int bitsets.  The structured enumeration
extends a block orbit by orbit: one OR of precomputed quotient masks per
step and a popcount against k(k-1) decide condition (Q) for the k points
(see ``_enumerate_structured``).  The exact cover keeps one bitset of row
ids per column and the set of rows still alive, so a column's active
count is a popcount of their AND, in the way dancing links keeps its
column sizes current without scanning the rows.

Symmetry constraints restrict the search:

* "stabilize": every emitted quotient set must be invariant under the
  given automorphisms.  During the enumeration the orbit closure of the
  partial quotient set may never exceed q(q+1) elements, which prunes
  hard from the middle depths on.
* "orbits": the (single) generated group must permute the solution's
  quotient-set family with the given orbit size multiset.  The cover then
  runs over orbit sums instead of single candidates.

Everything is deterministic: candidate order is lexicographic, cover
solutions come out in DFS order, and splitting the enumeration into
parallel branch tasks changes nothing but wall time.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .design import HatSystem, check_P, check_Q, build_affine_unital, verify_affine_unital
from .sl2q import SL2, AutMap, sl2_context


class BudgetExceeded(Exception):
    """Raised internally to unwind a search that hit its limits."""


@dataclass(frozen=True)
class SymmetryConstraint:
    """Automorphism generators plus the mode in which they constrain."""

    generators: tuple[AutMap, ...]
    mode: str  # "stabilize" | "orbits"
    orbit_shape: tuple[int, ...] = ()

    def __post_init__(self):
        if self.mode not in ("stabilize", "orbits"):
            raise ValueError(f"unknown constraint mode {self.mode!r}")
        if self.mode == "orbits" and not self.orbit_shape:
            raise ValueError("orbit-mode constraint needs an orbit_shape")


@dataclass(frozen=True)
class SearchConfig:
    q: int = 8
    modulus: int | None = None
    # (d, t) of the norm-1 torus; None takes the field's SL2.default_torus
    torus_params: tuple[int, int] | None = None
    constraints: tuple[SymmetryConstraint, ...] = ()
    candidate_limit: int | None = None
    node_budget: int | None = None
    time_budget_sec: float | None = None
    branches: int = 1
    dedup: str = "iso"  # "iso" | "none"
    # "auto" enumerates structured (hat-fixed) candidates when stabilize
    # constraints exist; "generic" forces the complete slow reference.
    method: str = "auto"  # "auto" | "structured" | "generic"

    def __post_init__(self):
        if self.dedup not in ("iso", "none"):
            raise ValueError(f"unknown dedup {self.dedup!r}")
        if self.method not in ("auto", "structured", "generic"):
            raise ValueError(f"unknown method {self.method!r}")
        for key, least in (("candidate_limit", 1), ("node_budget", 1), ("branches", 1)):
            value = getattr(self, key)
            if value is not None and value < least:
                raise ValueError(f"{key} must be at least {least}, got {value}")
        if self.time_budget_sec is not None and self.time_budget_sec < 0:
            raise ValueError(f"time_budget_sec must not be negative, got {self.time_budget_sec}")


@dataclass(frozen=True)
class Candidate:
    """A base block through the identity with its quotient set."""

    block: tuple[int, ...]
    quotients: frozenset[int]


@dataclass(frozen=True)
class CoverInstance:
    universe: tuple[int, ...]
    rows: tuple[frozenset[int], ...]
    arity: int


@dataclass
class CoverResult:
    solutions: list[tuple[int, ...]]
    complete: bool
    nodes: int
    resume_token: tuple[int, ...] | None = None


@dataclass
class SearchResult:
    systems: list[HatSystem]
    complete: bool
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Residue universe and candidate enumeration
# ----------------------------------------------------------------------
def residue_universe(group: SL2, subgroup: frozenset[int]) -> tuple[int, ...]:
    """Nonidentity elements outside the subgroup and all Sylow conjugates."""
    excluded = set(subgroup) | {0}
    for syl in group.sylow_subgroups:
        excluded |= syl
    return tuple(i for i in range(group.order) if i not in excluded)


def _stabilize_perms(group: SL2, constraints) -> list[np.ndarray]:
    """Nonidentity permutations of the group the stabilize-generators span."""
    gens = []
    for c in constraints:
        if c.mode == "stabilize":
            gens.extend(c.generators)
    if not gens:
        return []
    ident = np.arange(group.order, dtype=np.int32)
    elems = {ident.tobytes(): ident}
    frontier = [ident]
    gen_perms = [group.aut_perm(g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for gp in gen_perms:
                comp = gp[p]
                key = comp.tobytes()
                if key not in elems:
                    elems[key] = comp
                    nxt.append(comp)
        frontier = nxt
    return [p for p in elems.values() if not np.array_equal(p, ident)]


def enumerate_candidates(
    group: SL2,
    subgroup: frozenset[int],
    constraints: tuple[SymmetryConstraint, ...] = (),
    limit: int | None = None,
    first_element: int | None = None,
    method: str = "auto",
    time_budget_sec: float | None = None,
) -> tuple[list[Candidate], bool]:
    """All canonical (Q)-candidates, or a flagged partial list under a limit.

    Two interchangeable enumerators exist.  The generic one extends blocks
    element by element with quotient pruning; it is fully general but slow
    on large constrained instances.  When stabilize-mode constraints are
    present, the structured one walks the orbit decomposition induced by a
    constraint generator instead (see ``_enumerate_structured``) and is
    orders of magnitude faster.  ``method`` picks "generic", "structured"
    or "auto" (structured whenever a stabilize constraint allows it).

    ``first_element`` restricts the first chosen non-identity element
    (generic) or the hat translator (structured), which is how the search
    splits the tree into independent branch tasks.
    """
    stab_gens = [g for c in constraints if c.mode == "stabilize" for g in c.generators]
    if method == "auto":
        method = "structured" if stab_gens else "generic"
    if method == "structured":
        if not stab_gens:
            raise ValueError("structured enumeration needs a stabilize constraint")
        return _enumerate_structured(
            group,
            subgroup,
            constraints,
            limit=limit,
            first_element=first_element,
            time_budget_sec=time_budget_sec,
        )
    return _enumerate_generic(
        group,
        subgroup,
        constraints,
        limit=limit,
        first_element=first_element,
        time_budget_sec=time_budget_sec,
    )


def _enumerate_generic(
    group: SL2,
    subgroup: frozenset[int],
    constraints: tuple[SymmetryConstraint, ...] = (),
    limit: int | None = None,
    first_element: int | None = None,
    time_budget_sec: float | None = None,
) -> tuple[list[Candidate], bool]:
    deadline = time.monotonic() + time_budget_sec if time_budget_sec is not None else None
    q = group.field.q
    target = q * (q + 1)
    universe = np.array(residue_universe(group, subgroup), dtype=np.int32)
    in_universe = np.zeros(group.order, dtype=bool)
    in_universe[universe] = True
    cay = group.cayley
    inv = group.inverse_index
    stab = _stabilize_perms(group, constraints)

    q_mask = np.zeros(group.order, dtype=bool)
    closure_mask = np.zeros(group.order, dtype=bool)
    state = {"closure_count": 0, "emitted": 0}
    results: list[Candidate] = []

    def refine(viable: np.ndarray, d_arr: np.ndarray) -> np.ndarray:
        if len(viable) == 0:
            return viable
        dinv = inv[d_arr]
        left = cay[np.ix_(viable, dinv)]        # v * x^-1
        right = cay[np.ix_(d_arr, inv[viable])].T  # x * v^-1
        prods = np.concatenate([left, right], axis=1)
        ok = in_universe[prods].all(axis=1) & (~q_mask[prods]).all(axis=1)
        s = np.sort(prods, axis=1)
        ok &= ~(s[:, 1:] == s[:, :-1]).any(axis=1)
        return viable[ok]

    def quotients_with(e: int, d_list: list[int]) -> list[int]:
        ie = inv[e]
        out = []
        for x in d_list:
            out.append(int(cay[e, inv[x]]))
            out.append(int(cay[x, ie]))
        return out

    def emit(d_list: list[int], quotient_elems: frozenset[int]):
        block = tuple(d_list)
        # canonical-minimum over the hat translates
        for d in d_list[1:]:
            tid = inv[d]
            tr = tuple(sorted(int(cay[x, tid]) for x in d_list))
            if tr < block:
                return
        results.append(Candidate(block, quotient_elems))
        state["emitted"] += 1
        if limit is not None and state["emitted"] >= limit:
            raise BudgetExceeded

    def descend(d_list: list[int], viable: np.ndarray, mins: list[int]):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded
        for e in viable:
            e = int(e)
            if first_element is not None and len(d_list) == 1 and e != first_element:
                continue
            nq = quotients_with(e, d_list)
            # viable is refreshed per node, so nq is collision-free already
            trail = []
            for v in nq:
                if not q_mask[v]:
                    q_mask[v] = True
                    trail.append(v)
            closure_trail = []
            prune = False
            if stab:
                for v in nq:
                    if not closure_mask[v]:
                        closure_mask[v] = True
                        closure_trail.append(v)
                        state["closure_count"] += 1
                    for perm in stab:
                        w = int(perm[v])
                        if not closure_mask[w]:
                            closure_mask[w] = True
                            closure_trail.append(w)
                            state["closure_count"] += 1
                prune = state["closure_count"] > target
            # hat-canonicity: a translate whose least element undercuts
            # the second element of D can only complete to a smaller rep
            new_mins = None
            if not prune:
                ie = int(inv[e])
                new_mins = [min(m, int(cay[e, inv[d]])) for m, d in zip(mins, d_list[1:])]
                t_min = min(int(cay[x, ie]) for x in d_list)
                new_mins.append(t_min)
                first = d_list[1] if len(d_list) > 1 else e
                prune = any(m < first for m in new_mins)
            if not prune:
                d_list.append(e)
                if len(d_list) == q + 1:
                    elems = frozenset(int(i) for i in np.nonzero(q_mask)[0])
                    emit(d_list, elems)
                else:
                    nxt = refine(viable[viable > e], np.array(d_list, dtype=np.int32))
                    if len(nxt) >= (q + 1) - len(d_list):
                        descend(d_list, nxt, new_mins)
                d_list.pop()
            for v in trail:
                q_mask[v] = False
            for v in closure_trail:
                closure_mask[v] = False
            state["closure_count"] -= len(closure_trail)

    viable0 = refine(universe.copy(), np.array([0], dtype=np.int32))
    complete = True
    try:
        descend([0], viable0, [])
    except BudgetExceeded:
        complete = False
    results.sort(key=lambda c: c.block)
    return results, complete


def _bitsets(flags: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as a Python int whose bit e is column e."""
    packed = np.packbits(flags, axis=1, bitorder="little")
    raw, width = packed.tobytes(), packed.shape[1]
    if width == 0:
        return [0] * len(flags)
    return [int.from_bytes(raw[k : k + width], "little") for k in range(0, len(raw), width)]


def _incidence(sets, width: int, column=None) -> np.ndarray:
    """Boolean matrix whose row r is true at column[x] (or at x) for each x
    in sets[r]; a KeyError from ``column`` propagates."""
    sizes = [len(s) for s in sets]
    items = (x for s in sets for x in s)
    cols = np.fromiter(
        items if column is None else (column[x] for x in items), dtype=np.int32, count=sum(sizes)
    )
    flags = np.zeros((len(sets), width), dtype=bool)
    flags[np.repeat(np.arange(len(sets), dtype=np.int32), sizes), cols] = True
    return flags


def _flags(bits: list[int], width: int) -> np.ndarray:
    """The inverse of ``_bitsets``: the ints as rows ``width`` columns wide."""
    nbytes = (width + 7) // 8
    raw = b"".join(b.to_bytes(nbytes, "little") for b in bits)
    packed = np.frombuffer(raw, dtype=np.uint8).reshape(len(bits), nbytes)
    return np.unpackbits(packed, axis=1, count=width, bitorder="little").astype(bool)


def _enumerate_structured(
    group: SL2,
    subgroup: frozenset[int],
    constraints: tuple[SymmetryConstraint, ...],
    limit: int | None = None,
    first_element: int | None = None,
    time_budget_sec: float | None = None,
) -> tuple[list[Candidate], bool]:
    """Orbit-structured enumeration under a stabilize constraint.

    Let gamma be a constraint generator of prime order m without fixed
    points on the residue universe (true here: the universe excludes the
    subgroup and all involutions).  If D* is gamma-invariant then gamma
    carries the hat of D to a hat with the same quotient set; when that is
    D's own hat, gamma(D) = D * d0^-1 for a unique d0 in D, and the map
    tau(x) = gamma(x) * d0 permutes D with tau^m = right multiplication
    by t = gamma^(m-1)(d0) *...* gamma(d0) * d0.  A nontrivial t makes D
    a union of left cosets of <t>, which always breaks condition (Q), so
    t = 1 and D decomposes into tau-orbits: the orbit {1, d0, ...} of the
    identity plus further orbits filling up q+1 elements.  The search
    walks d0 and the orbit subsets, which is dramatically smaller than
    the element-by-element tree.

    The orbit subsets are walked as a bitset search.  Per d0, each orbit
    that is compatible with the base orbit gets one Python-int bitset of
    the quotients it adds (its own and those across to the base), and each
    pair of compatible orbits the bitset of its cross quotients, or None
    when those already collide or leave the universe; one vectorised
    gather per d0 builds all of them.  The walk carries the quotient mask
    M of the points chosen so far and, per remaining orbit j, the mask
    acc[j] of what j would add to them.  Orbit j is taken iff
    (M | acc[j]) has k(k-1) bits for the k points it makes: each ordered
    pair of the k points gives one quotient, so the count holds exactly
    when all of them are distinct, which is condition (Q).  Taking orbit i
    ORs the pair masks cross[i][j] into acc[j] and drops j where
    cross[i][j] is None.  The completed blocks of one d0 are then tested
    together for hat-canonicity (one sort of all their translates) and for
    invariance under the stabilize group, and emitted in walk order.

    One case escapes this decomposition: an invariant quotient set whose
    hats are all moved by gamma (several distinct hats sharing the
    quotient set, permuted among themselves).  Such configurations exist,
    e.g. for q = 4 under the Frobenius constraint, so this enumerator is
    exhaustive over hat-fixed candidates only; the generic enumerator
    remains the complete (and far slower) reference, and
    ``hats_with_quotients`` recovers every hat of any quotient set that
    does surface.
    """
    q = group.field.q
    n = group.order
    cay = group.cayley
    universe = residue_universe(group, subgroup)
    in_uni = np.zeros(n, dtype=bool)
    in_uni[list(universe)] = True
    stab = _stabilize_perms(group, constraints)

    # Structure generator: a maximal prime-order power of the largest
    # constraint element; invariance under the rest is filtered at emit.
    def perm_order(p: np.ndarray) -> int:
        k, cur = 1, p
        ident = np.arange(group.order)
        while not np.array_equal(cur, ident):
            cur = p[cur]
            k += 1
        return k

    best = max(stab, key=perm_order)
    m = perm_order(best)
    for prime in (2, 3, 5, 7):
        if m % prime == 0:
            gam = best
            for _ in range(m // prime - 1):
                gam = best[gam]
            m = prime
            break

    # Quotient tables padded with a sentinel element n: any product with
    # it is n, which counts as inside the universe and sets no bit, so
    # orbits of different lengths share one padded array.
    cay_pad = np.pad(cay, ((0, 1), (0, 1)), constant_values=n)
    inv_pad = np.append(group.inverse_index, n)
    in_uni_pad = np.append(in_uni, True)

    def quotients(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Per row r, every x * y^-1 with x in xs[r], y in ys[r] and x != y."""
        vals = cay_pad[xs[:, :, None], inv_pad[ys][:, None, :]]
        vals[xs[:, :, None] == ys[:, None, :]] = n
        return vals.reshape(len(xs), xs.shape[1] * ys.shape[1])

    def injective(vals: np.ndarray, expected: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which rows hold ``expected`` distinct quotients, all in the
        universe, and each row's quotients as a boolean mask."""
        flags = np.zeros((len(vals), n + 1), dtype=bool)
        flags[np.arange(len(vals))[:, None], vals] = True
        flags = flags[:, :n]
        ok = in_uni_pad[vals].all(axis=1) & (np.count_nonzero(flags, axis=1) == expected)
        return ok, flags

    results: list[Candidate] = []

    # d0 = 1 covers blocks fixed by gamma setwise, possible only when the
    # universe has gamma-fixed points (never at q = 8, but e.g. at q = 4).
    d0_list = (0,) + tuple(universe) if first_element is None else (first_element,)
    deadline = time.monotonic() + time_budget_sec if time_budget_sec is not None else None
    complete = True
    try:
        for d0 in d0_list:
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded
            if d0 != 0 and not in_uni[d0]:
                continue
            # torsion t = gamma^(m-1)(d0) * ... * gamma(d0) * d0 must be 1
            chain = [d0]
            for _ in range(m - 1):
                chain.append(int(gam[chain[-1]]))
            t = chain[-1]
            for v in reversed(chain[:-1]):
                t = int(cay[t, v])
            if t != 0:
                continue
            tau = cay[gam, d0].tolist()  # tau(x) = gamma(x) * d0
            base = [0]
            x = tau[0]
            while x != 0:
                base.append(x)
                x = tau[x]
            expected = 1 if d0 == 0 else m
            if len(base) != expected or any(not in_uni[p] for p in base[1:]):
                continue
            nb = len(base)
            base_pts = np.array([base])
            ok, base_flags = injective(quotients(base_pts, base_pts), nb * (nb - 1))
            if not ok[0]:
                continue
            # tau-orbit decomposition of the rest of the universe
            visited = set(base)
            orbits: list[list[int]] = []
            for s in universe:
                if s in visited:
                    continue
                orb = [s]
                y = tau[s]
                while y != s:
                    orb.append(y)
                    y = tau[y]
                visited.update(orb)
                if all(in_uni[p] for p in orb):
                    orbits.append(orb)
            need = q + 1 - nb
            base_bits = _bitsets(base_flags)[0]
            leaves: list[tuple[list[int], int]] = []
            pts = np.empty((0, 1), dtype=np.intp)
            if need == 0:
                leaves.append(([], base_bits))
            elif orbits:
                # keep orbits compatible with the base block
                width = max(len(o) for o in orbits)
                pts = np.full((len(orbits), width), n)
                for i, o in enumerate(orbits):
                    pts[i, : len(o)] = o
                lens = np.array([len(o) for o in orbits])
                bases = np.broadcast_to(base_pts, (len(orbits), nb))
                ok, flags = injective(
                    np.concatenate(
                        [quotients(pts, pts), quotients(pts, bases), quotients(bases, pts)],
                        axis=1,
                    ),
                    lens * (lens - 1) + 2 * lens * nb,
                )
                ok &= ~(flags & base_flags).any(axis=1)
                keep = np.flatnonzero(ok)
                pts, lens = pts[keep], lens[keep]
                adds = _bitsets(flags[keep])
                # cross quotients of each pair of compatible orbits
                c = len(keep)
                ii, jj = np.triu_indices(c, 1)
                ok, flags = injective(
                    np.concatenate(
                        [quotients(pts[ii], pts[jj]), quotients(pts[jj], pts[ii])], axis=1
                    ),
                    2 * lens[ii] * lens[jj],
                )
                cross: list[list[int | None]] = [[None] * c for _ in range(c)]
                for i, j, bits in zip(ii[ok].tolist(), jj[ok].tolist(), _bitsets(flags[ok])):
                    cross[i][j] = bits
                leaves = _orbit_subsets(base_bits, adds, cross, lens.tolist(), nb, need)
            if not leaves:
                continue
            # each leaf's block: the base and its orbits' points, sorted, with
            # the padding (index -1 picks an all-padding row) sorted last
            depth = max(len(chosen) for chosen, _ in leaves)
            picked = np.array(
                [chosen + [-1] * (depth - len(chosen)) for chosen, _ in leaves], dtype=np.intp
            ).reshape(len(leaves), depth)
            padded = np.vstack([pts, np.full(pts.shape[1], n)])[picked].reshape(len(leaves), -1)
            blocks = np.sort(
                np.concatenate([np.broadcast_to(base_pts, (len(leaves), nb)), padded], axis=1),
                axis=1,
            )[:, : q + 1]
            canon = np.flatnonzero(_hat_canonical(group, blocks))
            qflags = _flags([leaves[i][1] for i in canon], n)
            invariant = np.ones(len(canon), dtype=bool)
            for perm in stab:
                invariant &= (qflags[:, perm] == qflags).all(axis=1)
            for r in np.flatnonzero(invariant):
                results.append(
                    Candidate(
                        tuple(blocks[canon[r]].tolist()),
                        frozenset(np.flatnonzero(qflags[r]).tolist()),
                    )
                )
                if limit is not None and len(results) >= limit:
                    raise BudgetExceeded
    except BudgetExceeded:
        complete = False
    results.sort(key=lambda c: c.block)
    return results, complete


def _orbit_subsets(
    mask: int, adds: list[int], cross: list[list[int | None]], lens: list[int], nb: int, need: int
) -> list[tuple[list[int], int]]:
    """Every set of orbits (ascending indices, in DFS order) whose ``need``
    points keep condition (Q) with the ``nb`` points of quotient mask
    ``mask``, each with the quotient mask of the completed block.

    ``adds[i]`` is what orbit i adds to the base alone and ``cross[i][j]``
    (i < j) the cross quotients of orbits i and j, None if they collide.
    """
    leaves: list[tuple[list[int], int]] = []
    c = len(adds)

    def pick(start: int, mask: int, acc: list[int | None], size: int, chosen: list[int]):
        for i in range(start, c):
            add = acc[i]
            grown_size = size + lens[i]
            if add is None or grown_size > need:
                continue
            k = nb + grown_size
            grown = mask | add
            if grown.bit_count() != k * (k - 1):
                continue
            if grown_size == need:
                leaves.append((chosen + [i], grown))
                continue
            row = cross[i]
            nxt: list[int | None] = [None] * c
            for j in range(i + 1, c):
                if acc[j] is not None and row[j] is not None:
                    nxt[j] = acc[j] | row[j]
            pick(i + 1, grown, nxt, grown_size, chosen + [i])

    pick(0, mask, list(adds), 0, [])
    return leaves


def _hat_canonical(group: SL2, blocks: np.ndarray) -> np.ndarray:
    """Per sorted block through the identity (one per row), whether it is
    its hat's least translate: no B * d^-1 with d in B sorts before it."""
    cay, inv = group.cayley, group.inverse_index
    translates = np.sort(cay[blocks[:, None, :], inv[blocks][:, :, None]], axis=2)
    differ = translates != blocks[:, None, :]
    first = differ.argmax(axis=2)
    at = np.take_along_axis(translates, first[..., None], axis=2)[..., 0]
    own = np.take_along_axis(blocks, first, axis=1)
    return ~(differ.any(axis=2) & (at < own)).any(axis=1)


def is_valid_candidate(
    group: SL2,
    subgroup: frozenset[int],
    block: tuple[int, ...],
    constraints: tuple[SymmetryConstraint, ...] = (),
) -> bool:
    """The exact membership predicate of the enumeration, for one block."""
    q = group.field.q
    if len(block) != q + 1 or 0 not in block:
        return False
    universe = set(residue_universe(group, subgroup))
    if not check_Q(group, block):
        return False
    from .design import quotient_set

    qs = quotient_set(group, block).elements
    if not qs <= universe:
        return False
    for perm in _stabilize_perms(group, constraints):
        if frozenset(int(perm[x]) for x in qs) != qs:
            return False
    cay, inv = group.cayley, group.inverse_index
    canon = tuple(sorted(block))
    for d in block:
        if d == 0:
            continue
        tr = tuple(sorted(int(cay[x, inv[d]]) for x in block))
        if tr < canon:
            return False
    return True


def canonical_hat_representative(group: SL2, block: tuple[int, ...]) -> tuple[int, ...]:
    """Least translate of the block through the identity."""
    cay, inv = group.cayley, group.inverse_index
    best = None
    for d in block:
        tr = tuple(sorted(int(cay[x, inv[d]]) for x in block))
        if best is None or tr < best:
            best = tr
    return best


def hats_with_quotients(group: SL2, quotients: frozenset[int]) -> list[tuple[int, ...]]:
    """Canonical representatives of every hat with the given quotient set.

    Inside a hat each quotient appears in exactly one of the q+1 blocks
    through the identity, so every hat contains exactly one block through
    the least quotient element; enumerating the blocks through 1 and that
    element therefore meets each hat once.  Distinct hats sharing a
    quotient set do occur, so the result can have several entries.
    """
    q = group.field.q
    cay, inv = group.cayley, group.inverse_index
    elems = sorted(quotients)
    qset = set(elems)
    hats: set[tuple[int, ...]] = set()

    def grow(pts: list[int], used: set[int], start: int):
        if len(pts) == q + 1:
            if used == qset:
                hats.add(canonical_hat_representative(group, tuple(sorted(pts))))
            return
        for i in range(start, len(elems)):
            e = elems[i]
            if e in pts:
                continue
            new = []
            ok = True
            ie = int(inv[e])
            for y in pts:
                for v in (int(cay[e, inv[y]]), int(cay[y, ie])):
                    if v not in qset or v in used or v in new:
                        ok = False
                        break
                    new.append(v)
                if not ok:
                    break
            if not ok:
                continue
            used.update(new)
            pts.append(e)
            grow(pts, used, i + 1)
            pts.pop()
            used.difference_update(new)

    # the block through 1 and the least element, then its completions
    x0 = elems[0]
    seed_new = {x0, int(cay[0, inv[x0]])}
    if seed_new <= qset:
        grow([0, x0], set(seed_new), 0)
    return sorted(hats)


# ----------------------------------------------------------------------
# Exact cover
# ----------------------------------------------------------------------
def exact_cover(
    instance: CoverInstance,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    resume: tuple[int, ...] | None = None,
) -> CoverResult:
    """All ways to partition the universe with ``arity`` rows.

    Deterministic DFS: the uncovered element with the fewest active rows
    is branched on, rows in ascending id order.  On budget exhaustion the
    result is flagged incomplete and carries the decision stack as a
    resume token; passing that token back skips the already-explored
    prefix of the tree.

    Rows and columns are bitsets: each column holds the ids of its rows,
    and the search carries the set of rows still disjoint from the cover,
    so a column's active count is one AND and one popcount.  Choosing a
    row removes its conflicts (the rows that meet it), which are built
    the first time the row is chosen and cached.
    """
    nu = len(instance.universe)
    full = (1 << nu) - 1
    try:
        incidence = _incidence(
            instance.rows, nu, {u: i for i, u in enumerate(instance.universe)}
        )
    except KeyError:
        raise ValueError("row contains elements outside the universe") from None
    rows = _bitsets(incidence)
    if len(set(rows)) != len(rows):
        raise ValueError("cover rows are not pairwise distinct")
    col_rows = _bitsets(incidence.T)
    conflicts: dict[int, int] = {}

    solutions: list[tuple[int, ...]] = []
    stack: list[int] = []
    state = {"nodes": 0}
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None

    def dfs(covered: int, alive: int, boundary: bool):
        state["nodes"] += 1
        if max_nodes is not None and state["nodes"] > max_nodes:
            raise BudgetExceeded
        if deadline is not None and state["nodes"] % 256 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded
        if covered == full:
            if len(stack) == instance.arity:
                solutions.append(tuple(stack))
            return
        if len(stack) >= instance.arity:
            return
        best_active, best_count = 0, -1
        free = full & ~covered
        while free:
            low = free & -free
            free ^= low
            active = col_rows[low.bit_length() - 1] & alive
            count = active.bit_count()
            if best_count < 0 or count < best_count:
                best_active, best_count = active, count
                if not count:
                    break
        depth = len(stack)
        while best_active:
            low = best_active & -best_active
            best_active ^= low
            r = low.bit_length() - 1
            if boundary and resume is not None and depth < len(resume):
                if r < resume[depth]:
                    continue
                child_boundary = r == resume[depth]
            else:
                child_boundary = False
            meets = conflicts.get(r)
            if meets is None:
                meets = 0
                for c in np.flatnonzero(incidence[r]).tolist():
                    meets |= col_rows[c]
                conflicts[r] = meets
            stack.append(r)
            dfs(covered | rows[r], alive & ~meets, child_boundary)
            stack.pop()

    complete = True
    token = None
    try:
        dfs(0, (1 << len(rows)) - 1, resume is not None)
    except BudgetExceeded:
        complete = False
        token = tuple(stack)
    return CoverResult(solutions, complete, state["nodes"], token)


# ----------------------------------------------------------------------
# Full search
# ----------------------------------------------------------------------
def _enumerate_branch(args):
    """Worker for parallel branch tasks; rebuilds the shared context."""
    q, modulus, torus, constraints, limit, budget, method, first = args
    group = sl2_context(q, modulus)
    subgroup = group.cyclic_subgroup(*torus)
    cands, complete = enumerate_candidates(
        group,
        subgroup,
        constraints,
        limit=limit,
        first_element=first,
        time_budget_sec=budget,
        method=method,
    )
    return [c.block for c in cands], complete


def _enumerate_all(cfg: SearchConfig, group: SL2, subgroup: frozenset[int]):
    if cfg.branches <= 1:
        return enumerate_candidates(
            group,
            subgroup,
            cfg.constraints,
            limit=cfg.candidate_limit,
            time_budget_sec=cfg.time_budget_sec,
            method=cfg.method,
        )
    universe = residue_universe(group, subgroup)
    stab_gens = [g for c in cfg.constraints if c.mode == "stabilize" for g in c.generators]
    if stab_gens and cfg.method in ("auto", "structured"):
        # structured enumeration branches over the hat translator d0
        firsts = [0] + list(universe)
    else:
        # generic enumeration branches over the first chosen element, of
        # which only those with inv(e) >= e survive the canonical prune
        inv = group.inverse_index
        firsts = [e for e in universe if int(inv[e]) >= e]
    tasks = [
        (
            cfg.q,
            cfg.modulus,
            cfg.torus_params,
            cfg.constraints,
            cfg.candidate_limit,
            cfg.time_budget_sec,
            cfg.method,
            f,
        )
        for f in firsts
    ]
    blocks: list[tuple[int, ...]] = []
    complete = True
    with ProcessPoolExecutor(max_workers=cfg.branches) as pool:
        for part, part_complete in pool.map(_enumerate_branch, tasks):
            blocks.extend(part)
            complete &= part_complete
    blocks.sort()
    from .design import quotient_set

    cands = [Candidate(b, quotient_set(group, b).elements) for b in blocks]
    if cfg.candidate_limit is not None and len(cands) > cfg.candidate_limit:
        cands = cands[: cfg.candidate_limit]
        complete = False
    return cands, complete


def search(cfg: SearchConfig) -> SearchResult:
    """Candidate enumeration, cover solving, verification and dedup."""
    t0 = time.monotonic()
    group = sl2_context(cfg.q, cfg.modulus)
    if cfg.torus_params is None:
        cfg = replace(cfg, torus_params=group.default_torus())
    subgroup = group.cyclic_subgroup(*cfg.torus_params)
    q = cfg.q
    universe = residue_universe(group, subgroup)

    orbit_constraints = [c for c in cfg.constraints if c.mode == "orbits"]
    if len(orbit_constraints) > 1:
        raise ValueError("at most one orbit-mode constraint is supported")
    for oc in orbit_constraints:
        if sum(oc.orbit_shape) != q - 2:
            raise ValueError(
                f"orbit shape {sorted(oc.orbit_shape)} does not sum to q-2 = {q - 2}"
            )

    t_enumerate = time.monotonic()
    candidates, cand_complete = _enumerate_all(cfg, group, subgroup)
    t_cover = time.monotonic()
    stab_present = any(c.mode == "stabilize" for c in cfg.constraints)
    stats = {
        "candidates": len(candidates),
        "candidates_complete": cand_complete,
        "universe": len(universe),
        "enumeration_method": (
            cfg.method if cfg.method != "auto"
            else ("structured" if stab_present else "generic")
        ),
    }

    # Distinct quotient sets with their witness blocks (normally unique).
    by_quotients: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for c in candidates:
        by_quotients.setdefault(c.quotients, []).append(c.block)
    qsets = sorted(by_quotients, key=lambda s: sorted(s))

    remaining_budget = None
    if cfg.time_budget_sec is not None:
        remaining_budget = max(0.0, cfg.time_budget_sec - (time.monotonic() - t0))

    families: list[tuple[frozenset[int], ...]] = []
    cover_complete = True
    if not orbit_constraints:
        instance = CoverInstance(universe, tuple(qsets), arity=q - 2)
        res = exact_cover(instance, max_nodes=cfg.node_budget, max_seconds=remaining_budget)
        cover_complete = res.complete
        stats["cover_nodes"] = res.nodes
        for sol in res.solutions:
            families.append(tuple(qsets[r] for r in sol))
    else:
        oc = orbit_constraints[0]
        perms = _stabilize_perms(group, (replace(oc, mode="stabilize"),))
        shape = sorted(oc.orbit_shape)
        # the image of each quotient set under each perm, as an id or None
        flags = _incidence(qsets, group.order)
        qset_ids = {bits: i for i, bits in enumerate(_bitsets(flags))}
        images = [
            [qset_ids.get(bits) for bits in _bitsets(flags[:, np.argsort(perm)])]
            for perm in perms
        ]
        orbits: dict[frozenset[int], list[int]] = {}
        for i in range(len(qsets)):
            orbit = {i}
            for image in images:
                j = image[i]
                if j is None:
                    orbit = None
                    break
                orbit.add(j)
            if orbit is not None:
                key = frozenset(orbit)
                orbits.setdefault(key, sorted(orbit))
        # Distinct unions as solver rows; each may stand for several orbits
        # (different orbits with equal unions are possible in principle).
        union_rows: dict[frozenset[int], list[list[int]]] = {}
        for key in sorted(orbits, key=lambda k: sorted(k)):
            members = orbits[key]
            if len(members) not in shape:
                continue
            union: set[int] = set()
            total = 0
            for m in members:
                union |= qsets[m]
                total += len(qsets[m])
            if len(union) != total:
                continue  # members overlap; cannot sit in one partition
            union_rows.setdefault(frozenset(union), []).append(members)
        row_keys = sorted(union_rows, key=lambda s: sorted(s))
        instance = CoverInstance(universe, tuple(row_keys), arity=len(shape))
        res = exact_cover(instance, max_nodes=cfg.node_budget, max_seconds=remaining_budget)
        cover_complete = res.complete
        stats["cover_nodes"] = res.nodes
        stats["orbit_rows"] = len(row_keys)
        for sol in res.solutions:
            for variant in product(*(union_rows[row_keys[r]] for r in sol)):
                members = [m for part in variant for m in part]
                if sorted(len(part) for part in variant) != shape:
                    continue
                families.append(tuple(qsets[m] for m in sorted(members)))

    # Materialise (over all hats sharing a quotient set), verify, dedup.
    t_verify = time.monotonic()
    witness_cache: dict[frozenset[int], list[tuple[int, ...]]] = {}

    def witnesses_of(s: frozenset[int]) -> list[tuple[int, ...]]:
        if s not in witness_cache:
            witness_cache[s] = hats_with_quotients(group, s)
        return witness_cache[s]

    systems: list[HatSystem] = []
    unitals = []
    seen_bases: set[tuple] = set()
    for family in sorted(families, key=lambda f: sorted(sorted(s) for s in f)):
        for witnesses in product(*(witnesses_of(s) for s in family)):
            bases = tuple(sorted(witnesses))
            if bases in seen_bases:
                continue
            seen_bases.add(bases)
            system = HatSystem(group, subgroup, bases)
            if not all(check_Q(group, b) for b in bases) or not check_P(system):
                raise RuntimeError("search emitted a family failing (Q)/(P) re-verification")
            unital = build_affine_unital(system)
            if not verify_affine_unital(unital).ok:
                raise RuntimeError("search emitted a family failing axiom verification")
            if cfg.dedup == "iso":
                from .morphisms import are_isomorphic_affine

                if any(are_isomorphic_affine(u, unital) is not None for u in unitals):
                    continue
            systems.append(system)
            unitals.append(unital)

    t_end = time.monotonic()
    stats["solutions"] = len(families)
    stats["enumerate_sec"] = t_cover - t_enumerate
    stats["cover_sec"] = t_verify - t_cover
    stats["verify_sec"] = t_end - t_verify
    stats["elapsed_sec"] = t_end - t0
    return SearchResult(systems, cand_complete and cover_complete, stats)
