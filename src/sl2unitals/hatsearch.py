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

Canonicity rule: under (Q) the non-identity points of the q+1 translates
D*d^-1 (d in D) are the quotients of D, each in exactly one translate,
and the translate with d = 1 is D itself.  So the least translate is the
one that holds min(D*): D is canonical iff min(D*) lies in D.

Both hot loops work on Python-int bitsets.  One walk, ``_orbit_subsets``,
serves all three block searches: it extends a base block orbit by orbit,
and one OR of precomputed quotient masks per step plus a popcount
decide condition (Q) for the points so far.  The structured enumeration
walks the tau-orbits of a constraint generator (``_enumerate_structured``);
the generic enumeration and ``hats_with_quotients`` walk single elements
as orbits of length 1, seeded with {1, d1} for the least non-identity
point d1, where the canonicity rule becomes "no quotient below d1" and
every leaf is canonical.  On q = 4 the complete generic enumeration of
one torus (202 candidates) takes 4-5 ms, a whole search 27-28 ms (median
over the six tori on a 2-vCPU machine, Python 3.11).

The exact cover keeps one bitset of row ids per column and the set of
rows still alive, so a column's active count is a popcount of their AND,
in the way dancing links keeps its column sizes current without
scanning the rows.  A node or time budget stops the cover with the
solutions found so far, flagged incomplete.

Symmetry constraints restrict the search:

* "stabilize": every emitted quotient set must be invariant under the
  given automorphisms.  During the generic enumeration the orbit closure
  of the partial quotient set may never exceed q(q+1) elements, which
  prunes hard from the middle depths on.
* "orbits": the (single) generated group must permute the solution's
  quotient-set family with the given orbit size multiset.  The cover then
  runs over orbit sums instead of single candidates.

Everything is deterministic: candidate order is lexicographic, cover
solutions come out in DFS order, and splitting the enumeration into
parallel branch tasks changes nothing but wall time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .design import HatSystem, build_affine_unital, residue_universe, verify_affine_unital
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


@dataclass
class SearchResult:
    systems: list[HatSystem]
    complete: bool
    stats: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Candidate enumeration (the residue universe comes from design)
# ----------------------------------------------------------------------
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


def _resolve_method(group: SL2, constraints, method: str) -> str:
    """The enumerator ``method`` runs: "auto" is "structured" exactly when
    the stabilize generators span more than the identity."""
    if method == "generic":
        return method
    if _stabilize_perms(group, constraints):
        return "structured"
    if method == "structured":
        gens = [g for c in constraints if c.mode == "stabilize" for g in c.generators]
        raise ValueError(
            "structured enumeration needs a stabilize constraint that moves some element"
            + (f"; the stabilize generators {gens} span only the identity" if gens else "")
        )
    return "generic"


def enumerate_candidates(
    group: SL2,
    subgroup: frozenset[int],
    constraints: tuple[SymmetryConstraint, ...] = (),
    limit: int | None = None,
    first_element: int | None = None,
    method: str = "auto",
    time_budget_sec: float | None = None,
    stats: dict | None = None,
) -> tuple[list[Candidate], bool]:
    """All canonical (Q)-candidates, or a flagged partial list under a limit.

    Two enumerators share one bitset walk (``_orbit_subsets``).  The
    generic one extends blocks element by element and is complete.  The
    structured one walks the orbit decomposition induced by a stabilize
    constraint generator (see ``_enumerate_structured``) and is orders of
    magnitude faster on large constrained instances.  ``method`` picks
    "generic", "structured" or "auto" (structured whenever a stabilize
    constraint moves some element).

    ``first_element`` restricts the first chosen non-identity element
    (generic) or the hat translator (structured), which is how the search
    splits the tree into independent branch tasks.  ``stats``, when given,
    gains the walk's node count under "enumerate_nodes".
    """
    structured = _resolve_method(group, constraints, method) == "structured"
    return (_enumerate_structured if structured else _enumerate_generic)(
        group, subgroup, constraints, limit, first_element, time_budget_sec, stats
    )


def _mask(elems) -> int:
    """The Python-int bitset with bit e set for each e."""
    bits = 0
    for e in elems:
        bits |= 1 << e
    return bits


def _members(bits: int) -> list[int]:
    """The set bits of a Python int, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def _orbit_masks(n: int, perms: list[np.ndarray]) -> list[int]:
    """Per element, the bitset of its orbit under the group of ``perms``
    (which lists every non-identity element of that group)."""
    flags = np.eye(n, dtype=bool)
    for perm in perms:
        flags[np.arange(n), perm] = True
    return _bitsets(flags)


def _pair_masks(group: SL2, elems: list[int], table: list[int]) -> list[list[int]]:
    """Row i holds, at each j > i, ``table[x] | table[y]`` for the two
    quotients x = elems[i] * elems[j]^-1 and y = elems[j] * elems[i]^-1."""
    e = np.asarray(elems, dtype=np.intp)
    quot = group.cayley[e[:, None], group.inverse_index[e][None, :]]
    rows = []
    for i, (xs, ys) in enumerate(zip(quot.tolist(), quot.T.tolist())):
        rows.append([0] * (i + 1) + [table[x] | table[y] for x, y in zip(xs[i + 1 :], ys[i + 1 :])])
    return rows


def _point_walk(group, elems, first, masks, forbidden, need, emit, closure=None, **bounds):
    """``_orbit_subsets`` for blocks through 1 and x0 = elems[first] whose
    other ``need`` points come from elems after it, each point an orbit of
    length 1.  ``masks`` is (table, rows): each element's bit and the
    ``_pair_masks`` rows built from it; ``closure``, when given, the same
    with each element's orbit mask in place of its bit."""
    inv = group.inverse_index.tolist()
    x0 = elems[first]

    def seeded(table, rows):
        adds = [
            table[e] | table[inv[e]] | rows[first][j] if j > first else None
            for j, e in enumerate(elems)
        ]
        return table[x0] | table[inv[x0]], adds, rows

    if closure is not None:
        closure = seeded(*closure)
    quotients, adds, cross = seeded(*masks)
    _orbit_subsets(
        1 | 1 << x0, quotients, forbidden, adds, cross, [1 << e for e in elems], need, emit,
        closure=closure, **bounds,
    )


def _enumerate_generic(
    group: SL2,
    subgroup: frozenset[int],
    constraints: tuple[SymmetryConstraint, ...] = (),
    limit: int | None = None,
    first_element: int | None = None,
    time_budget_sec: float | None = None,
    stats: dict | None = None,
) -> tuple[list[Candidate], bool]:
    """Element-by-element enumeration: per least non-identity point d1, one
    walk seeded with {1, d1} over the universe elements above it.

    Canonicity is a bound on that walk: D is its hat's least translate iff
    min(D*) lies in D (module docstring), and the quotients below d1 that
    lie in D are none, so every quotient below d1 is forbidden like one
    outside the universe.  Under stabilize constraints the orbit closure
    of the quotients may never exceed q(q+1) elements, which also makes
    every leaf invariant.  So every leaf is a candidate, in lexicographic
    order.
    """
    deadline = time.monotonic() + time_budget_sec if time_budget_sec is not None else None
    q, n = group.field.q, group.order
    universe = list(residue_universe(group, subgroup))
    outside = ((1 << n) - 1) & ~_mask(universe)
    bits = [1 << v for v in range(n)]
    masks = (bits, _pair_masks(group, universe, bits))
    stab = _stabilize_perms(group, constraints)
    closure = None
    if stab:
        orbit = _orbit_masks(n, stab)
        closure = (orbit, _pair_masks(group, universe, orbit))
    results: list[Candidate] = []

    def emit(points: int, quotients: int) -> None:
        results.append(Candidate(tuple(_members(points)), frozenset(_members(quotients))))
        if limit is not None and len(results) >= limit:
            raise BudgetExceeded

    complete = True
    try:
        for first, d1 in enumerate(universe):
            if first_element is None or d1 == first_element:
                forbidden = outside | ((1 << d1) - 1)
                _point_walk(group, universe, first, masks, forbidden, q - 1, emit, closure,
                            deadline=deadline, stats=stats)
    except BudgetExceeded:
        complete = False
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
    stats: dict | None = None,
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

    Per d0, each orbit that is compatible with the base orbit gets one
    bitset of the quotients it adds (its own and those across to the
    base), and each pair of compatible orbits the bitset of its cross
    quotients; one vectorised gather per d0 builds all of them, and
    ``_orbit_subsets`` walks the orbit subsets.  The completed blocks of
    one d0 are then tested for hat-canonicity (min(D*) in D, one AND per
    block) and together for invariance under the stabilize group, and
    emitted in walk order.

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
    outside = ((1 << n) - 1) & ~_mask(universe)
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
            nb = len(base)
            if nb != expected or nb > q + 1 or any(not in_uni[p] for p in base[1:]):
                continue
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
            adds: list[int] = []
            # cross[i][j] is 1 where orbits i and j collide: bit 0 (the
            # identity) is always forbidden, so the walk never takes both
            cross: list[list[int]] = []
            if orbits:
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
                orbits = [orbits[i] for i in keep]
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
                cross = [[1] * c for _ in range(c)]
                for i, j, bits in zip(ii[ok].tolist(), jj[ok].tolist(), _bitsets(flags[ok])):
                    cross[i][j] = bits
            leaves: list[tuple[int, int]] = []
            _orbit_subsets(
                _mask(base),
                _bitsets(base_flags)[0],
                outside,
                adds,
                cross,
                [_mask(o) for o in orbits],
                need,
                lambda p, m: leaves.append((p, m)),
                deadline=deadline,
                stats=stats,
            )
            # the hat's least translate is the block holding min(D*)
            leaves = [(p, m) for p, m in leaves if m & -m & p]
            if not leaves:
                continue
            qflags = _flags([m for _, m in leaves], n)
            invariant = np.ones(len(leaves), dtype=bool)
            for perm in stab:
                invariant &= (qflags[:, perm] == qflags).all(axis=1)
            for r in np.flatnonzero(invariant):
                results.append(
                    Candidate(
                        tuple(_members(leaves[r][0])),
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
    points: int,
    quotients: int,
    forbidden: int,
    adds: list[int | None],
    cross: list[list[int]],
    orbits: list[int],
    need: int,
    emit,
    closure: tuple[int, list[int | None], list[list[int]]] | None = None,
    deadline: float | None = None,
    stats: dict | None = None,
) -> None:
    """Call ``emit(point mask, quotient mask)`` for every block that adds
    orbits of ``need`` points in all to the base block ``points`` (quotient
    mask ``quotients``) and keeps condition (Q) with no quotient in
    ``forbidden``.  Orbits are taken in index order, so the blocks come out
    in the lexicographic order of their orbit index lists.

    ``orbits[i]`` is orbit i's point mask, ``adds[i]`` the quotients it adds
    to the base alone (None: never taken) and ``cross[i][j]`` (i < j) those
    between orbits i and j.  The walk carries the quotient mask M, seeded
    with ``forbidden``, and per remaining orbit j the mask acc[j] of what j
    would add.  Orbit j may join the k points so far iff (M | acc[j]) has
    |forbidden| + k'(k'-1) bits for the k' points that makes: each ordered
    pair gives one quotient, so the count holds exactly when all of them
    are distinct and none is forbidden, which is condition (Q) inside the
    allowed set.  Taking orbit i ORs cross[i][j] into acc[j].

    ``closure`` = (C, cadds, ccross) holds the same masks closed under the
    stabilize group (closure distributes over union), and orbit j may join
    only while (C | cacc[j]) has at most q(q+1) bits.  ``deadline`` stops
    the walk with BudgetExceeded at that monotonic time, as may ``emit``;
    ``stats`` gains the node count.
    """
    nb = points.bit_count()
    lens = [o.bit_count() for o in orbits]
    longest = max(lens, default=1)
    goal = [forbidden.bit_count() + k * (k - 1) for k in range(nb + need + 1)] + [-1] * longest
    cap = goal[nb + need] - forbidden.bit_count()
    nodes = 0
    if not need:
        emit(points, quotients)

    def grow(P: int, M: int, C: int, size: int, cands: list) -> None:
        nonlocal nodes
        for at, (i, add, cadd) in enumerate(cands):
            nodes += 1
            if deadline is not None and time.monotonic() > deadline:
                raise BudgetExceeded
            grown, M_i = size + lens[i], M | add
            if grown == need:
                emit(P | orbits[i], M_i ^ forbidden)
                continue
            row, k = cross[i], nb + grown
            if closure is None:
                C_i = 0
                nxt = [
                    (j, b, 0)
                    for j, a, _ in cands[at + 1 :]
                    if (M_i | (b := a | row[j])).bit_count() == goal[k + lens[j]]
                ]
            else:
                C_i, crow = C | cadd, closure[2][i]
                nxt = [
                    (j, b, cb)
                    for j, a, ca in cands[at + 1 :]
                    if (M_i | (b := a | row[j])).bit_count() == goal[k + lens[j]]
                    and (C_i | (cb := ca | crow[j])).bit_count() <= cap
                ]
            if len(nxt) * longest >= need - grown:
                grow(P | orbits[i], M_i, C_i, grown, nxt)

    M = forbidden | quotients
    C, cadds = (0, [0] * len(adds)) if closure is None else closure[:2]
    cands = [
        (j, a, ca)
        for j, (a, ca) in enumerate(zip(adds, cadds))
        if a is not None
        and (M | a).bit_count() == goal[nb + lens[j]]
        and (C | ca).bit_count() <= cap
    ]
    try:
        if need and (M.bit_count() == goal[nb]) and C.bit_count() <= cap:
            grow(points, M, C, 0, cands)
    finally:
        if stats is not None:
            stats["enumerate_nodes"] = stats.get("enumerate_nodes", 0) + nodes


def hats_with_quotients(group: SL2, quotients: frozenset[int]) -> list[tuple[int, ...]]:
    """Canonical representatives of every hat with the given quotient set.

    Inside a hat each quotient appears in exactly one of the q+1 blocks
    through the identity, so every hat contains exactly one block through
    the least quotient element x0, and that block is the hat's least
    translate (module docstring).  One walk over the quotient set seeded
    with {1, x0} therefore meets each hat once, at its representative.
    Distinct hats sharing a quotient set do occur, so the result can have
    several entries.
    """
    elems = sorted(quotients)
    if not elems:
        return []
    qbits = _mask(elems)
    bits = [1 << v for v in range(group.order)]
    leaves: list[tuple[int, int]] = []
    _point_walk(
        group, elems, 0, (bits, _pair_masks(group, elems, bits)),
        ((1 << group.order) - 1) & ~qbits, group.field.q - 1, lambda p, m: leaves.append((p, m)),
    )
    return [tuple(_members(p)) for p, m in leaves if m == qbits]


# ----------------------------------------------------------------------
# Exact cover
# ----------------------------------------------------------------------
def exact_cover(
    instance: CoverInstance,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
) -> CoverResult:
    """All ways to partition the universe with ``arity`` rows.

    Deterministic DFS: the uncovered element with the fewest active rows
    is branched on, rows in ascending id order.  On budget exhaustion the
    result is flagged incomplete and holds the solutions found so far.

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

    def dfs(covered: int, alive: int):
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
        while best_active:
            low = best_active & -best_active
            best_active ^= low
            r = low.bit_length() - 1
            meets = conflicts.get(r)
            if meets is None:
                meets = 0
                for c in np.flatnonzero(incidence[r]).tolist():
                    meets |= col_rows[c]
                conflicts[r] = meets
            stack.append(r)
            dfs(covered | rows[r], alive & ~meets)
            stack.pop()

    complete = True
    try:
        dfs(0, (1 << len(rows)) - 1)
    except BudgetExceeded:
        complete = False
    return CoverResult(solutions, complete, state["nodes"])


# ----------------------------------------------------------------------
# Full search
# ----------------------------------------------------------------------
def _enumerate_branch(args):
    """Worker for parallel branch tasks; rebuilds the shared context."""
    q, modulus, torus, constraints, limit, budget, method, first = args
    group = sl2_context(q, modulus)
    subgroup = group.cyclic_subgroup(*torus)
    stats: dict = {}
    cands, complete = enumerate_candidates(
        group, subgroup, constraints, limit, first, method=method, time_budget_sec=budget,
        stats=stats,
    )
    return cands, complete, stats.get("enumerate_nodes", 0)


def _enumerate_all(cfg: SearchConfig, group: SL2, subgroup: frozenset[int], method: str, stats):
    if cfg.branches <= 1:
        return enumerate_candidates(
            group, subgroup, cfg.constraints, cfg.candidate_limit, method=method,
            time_budget_sec=cfg.time_budget_sec, stats=stats,
        )
    from concurrent.futures import ProcessPoolExecutor  # only this path starts a pool

    universe = residue_universe(group, subgroup)
    if method == "structured":
        # structured enumeration branches over the hat translator d0
        firsts = [0] + list(universe)
    else:
        # generic enumeration branches over the first chosen element, of
        # which only those with inv(e) >= e survive the canonical prune
        inv = group.inverse_index
        firsts = [e for e in universe if int(inv[e]) >= e]
    shared = (cfg.q, cfg.modulus, cfg.torus_params, cfg.constraints, cfg.candidate_limit)
    tasks = [shared + (cfg.time_budget_sec, method, f) for f in firsts]
    cands: list[Candidate] = []
    complete = True
    with ProcessPoolExecutor(max_workers=cfg.branches) as pool:
        for part, part_complete, nodes in pool.map(_enumerate_branch, tasks):
            cands.extend(part)
            complete &= part_complete
            stats["enumerate_nodes"] = stats.get("enumerate_nodes", 0) + nodes
    cands.sort(key=lambda c: c.block)
    if cfg.candidate_limit is not None and len(cands) > cfg.candidate_limit:
        cands = cands[: cfg.candidate_limit]
        complete = False
    return cands, complete


def _cover_families(
    cfg: SearchConfig,
    group: SL2,
    universe: tuple[int, ...],
    candidates: list[Candidate],
    orbit_constraints: list[SymmetryConstraint],
    max_seconds: float | None,
    stats: dict,
) -> tuple[list[tuple[frozenset[int], ...]], bool]:
    """The cover stage: the quotient-set families that partition the
    universe, and whether the cover ran to completion."""
    qsets = sorted({c.quotients for c in candidates}, key=sorted)

    families: list[tuple[frozenset[int], ...]] = []
    if not orbit_constraints:
        instance = CoverInstance(universe, tuple(qsets), arity=cfg.q - 2)
        res = exact_cover(instance, max_nodes=cfg.node_budget, max_seconds=max_seconds)
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
        res = exact_cover(instance, max_nodes=cfg.node_budget, max_seconds=max_seconds)
        stats["cover_nodes"] = res.nodes
        stats["orbit_rows"] = len(row_keys)
        for sol in res.solutions:
            for variant in product(*(union_rows[row_keys[r]] for r in sol)):
                members = [m for part in variant for m in part]
                if sorted(len(part) for part in variant) != shape:
                    continue
                families.append(tuple(qsets[m] for m in sorted(members)))
    return families, res.complete


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
    method = _resolve_method(group, cfg.constraints, cfg.method)
    stats = {"enumeration_method": method, "enumerate_nodes": 0, "universe": len(universe)}
    candidates, cand_complete = _enumerate_all(cfg, group, subgroup, method, stats)
    t_cover = time.monotonic()
    stats["candidates"] = len(candidates)
    stats["candidates_complete"] = cand_complete

    remaining_budget = None
    if cfg.time_budget_sec is not None:
        remaining_budget = max(0.0, cfg.time_budget_sec - (time.monotonic() - t0))
    if remaining_budget == 0.0:
        # the enumeration spent the budget: skip the cover, set-up included
        families, cover_complete = [], False
        stats["cover_nodes"] = 0
    else:
        families, cover_complete = _cover_families(
            cfg, group, universe, candidates, orbit_constraints, remaining_budget, stats
        )

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
            unital = build_affine_unital(system)  # re-checks (Q) and (P)
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
