"""The groups SL(2,q) for even q: enumeration, subgroups and automorphisms.

Group elements are 4-tuples (a, b, c, d) of field codes, read as the
row-major 2x2 matrix with determinant ad + bc = 1 (characteristic 2).
An :class:`SL2` instance indexes all q(q^2-1) elements once, with the
identity matrix at index 0 and the rest in lexicographic code order, and
carries the Cayley table so that all downstream set computations run on
integer indices.

For even q the automorphisms of SL(2,q) are exactly the maps
x -> phi^k(h^-1 x h): conjugation followed by an entrywise power of the
Frobenius.  :class:`AutMap` fixes that application order (conjugate
first, then Frobenius).  All of them are held as one permutation table,
``SL2.aut_table`` (row h*e + k for AutMap(elements[h], k), the order of
``all_aut_maps``), built on first use; set-stabilizer and transporter
questions are one boolean gather over it (``aut_transporter``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .gf2e import GF2e

Element = tuple[int, int, int, int]


@dataclass(frozen=True)
class AutMap:
    """An automorphism x -> phi^frob(conjugator^-1 x conjugator)."""

    conjugator: Element
    frob: int


class SL2:
    """SL(2,q) over a :class:`GF2e` field, with indexed fast operations."""

    def __init__(self, field: GF2e):
        self.field = field
        q, e = field.q, field.e
        # The smallest unsigned types of a packed row (2e bits) and of a
        # packed matrix (4e bits): uint8 and uint16 at q = 16.
        row_type, code_type = np.min_scalar_type(q**2 - 1), np.min_scalar_type(q**4 - 1)
        M = field.mul_table.astype(row_type)

        # Elements: one determinant filter over the q^4 packed codes
        # (a << 3e) | (b << 2e) | (c << e) | d.  Numeric order of the codes
        # is lexicographic order of the tuples; the identity moves first.
        # The brute-force tuple filter is kept in the tests as an oracle.
        codes = np.arange(q**4, dtype=np.int32)
        a, b, c, d = ((codes >> k * e) & (q - 1) for k in (3, 2, 1, 0))
        packed = codes[(M[a, d] ^ M[b, c]) == 1]
        one = (1 << 3 * e) | 1
        packed = np.concatenate(([one], packed[packed != one]))
        n = self.order = len(packed)
        a, b, c, d = a[packed], b[packed], c[packed], d[packed]
        self.elements: list[Element] = list(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))
        self.index: dict[Element, int] = {t: i for i, t in enumerate(self.elements)}
        packed_index = np.full(q**4, -1, dtype=np.int32)
        packed_index[packed] = np.arange(n, dtype=np.int32)

        # Cayley table.  Row x of the product xy is x's first row times y:
        # v * (y's first row) packed is U[v], v * (y's second row) is V[v],
        # so W[a*q + b] = U[a] ^ V[b] is the packed row (a, b) * y over all
        # y, and xy packs as (W[r1(x)] << 2e) | W[r2(x)].  W is q^2 x n
        # packed rows.  The table is filled in 16 row chunks, so the build
        # peaks near the int32 table itself (sl2_context admits q <= 16:
        # 4080 elements, a 67 MB table).
        U = (M[:, a] << e) | M[:, b]
        V = (M[:, c] << e) | M[:, d]
        W = (U[:, None, :] ^ V[None, :, :]).reshape(q * q, n)
        r1, r2 = a * q + b, c * q + d
        self.cayley = np.empty((n, n), dtype=np.int32)
        step = -(-n // 16)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            prod = W[r1[rows]].astype(code_type)
            prod <<= 2 * e
            prod |= W[r2[rows]]
            np.take(packed_index, prod, out=self.cayley[rows], mode="clip")

        # In characteristic 2 the inverse of (a, b; c, d) is (d, b; c, a).
        self.inverse_index = packed_index[(d << 3 * e) | (b << 2 * e) | (c << e) | a]
        F = field._frob.astype(np.int32)
        self.frob_index = packed_index[(F[a] << 3 * e) | (F[b] << 2 * e) | (F[c] << e) | F[d]]

    # ------------------------------------------------------------------
    # Element-level operations
    # ------------------------------------------------------------------
    @property
    def one(self) -> Element:
        return (1, 0, 0, 1)

    def element(self, a: int, b: int, c: int, d: int) -> Element:
        """Validated construction: determinant must be 1."""
        f = self.field
        if f.mul(a, d) ^ f.mul(b, c) != 1:
            raise ValueError(f"matrix ({a},{b},{c},{d}) has determinant != 1")
        return (a, b, c, d)

    # ------------------------------------------------------------------
    # Index-level operations
    # ------------------------------------------------------------------
    def idx(self, x: Element) -> int:
        return self.index[x]

    def conj_idx(self, i: int, h: int) -> int:
        """Index of h^-1 x h for element indices i, h."""
        return int(self.cayley[self.cayley[self.inverse_index[h], i], h])

    def order_of_idx(self, i: int) -> int:
        n = 1
        j = i
        while j != 0:
            j = int(self.cayley[j, i])
            n += 1
        return n

    def subgroup_generated(self, gens: list[int]) -> frozenset[int]:
        """Closure of the generator indices under the group operation."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = int(self.cayley[x, g])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A generating set: greedily, the least element outside the
        subgroup generated by the elements chosen before it."""
        gens: list[int] = []
        sub = frozenset({0})
        while len(sub) < self.order:
            gens.append(next(x for x in range(self.order) if x not in sub))
            sub = self.subgroup_generated(gens)
        return tuple(gens)

    # ------------------------------------------------------------------
    # Named subgroups
    # ------------------------------------------------------------------
    @cached_property
    def sylow_subgroups(self) -> tuple[frozenset[int], ...]:
        """The q+1 Sylow 2-subgroups (conjugates of the unitriangulars)."""
        q = self.field.q
        upper = np.array([self.index[(1, x, 0, 1)] for x in range(q)])
        h = np.arange(self.order)[:, None]
        conj = self.cayley[self.cayley[self.inverse_index[h], upper], h]
        subs = [frozenset(s) for s in sorted(set(map(tuple, np.sort(conj, axis=1).tolist())))]
        if len(subs) != q + 1:
            raise RuntimeError(f"expected {q+1} Sylow subgroups, found {len(subs)}")
        return tuple(subs)

    def default_torus(self) -> tuple[int, int]:
        """The first (d, t), d over the field and t over its nonzero
        elements, with X^2 + tX + d irreducible: (1, 1) at q = 8."""
        f = self.field
        return next(
            (d, t) for d in f.elements() for t in f.nonzero_elements() if f.discriminant_check(d, t)
        )

    def cyclic_subgroup(self, d: int, t: int) -> frozenset[int]:
        """The norm-1 torus {(a, b; d*b, a+t*b) : a^2+tab+db^2 = 1}.

        Requires X^2 + tX + d irreducible; the group has order q+1 and is
        cyclic.
        """
        f = self.field
        if not f.discriminant_check(d, t):
            raise ValueError(
                f"not a quadratic non-residue setup: X^2 + {t}X + {d} has a root"
            )
        members = []
        for a in f.elements():
            for b in f.elements():
                if f.mul(a, a) ^ f.mul(t, f.mul(a, b)) ^ f.mul(d, f.mul(b, b)) == 1:
                    members.append(self.index[(a, b, f.mul(d, b), a ^ f.mul(t, b))])
        group = frozenset(members)
        if len(group) != f.q + 1:
            raise RuntimeError(f"torus has {len(group)} elements, expected {f.q + 1}")
        if not any(self.order_of_idx(i) == f.q + 1 for i in group):
            raise RuntimeError("torus is not cyclic: no element of order q+1")
        return group

    # ------------------------------------------------------------------
    # Automorphisms
    # ------------------------------------------------------------------
    @property
    def identity_aut(self) -> AutMap:
        return AutMap(self.one, 0)

    def aut_perm(self, m: AutMap) -> np.ndarray:
        """The automorphism as a permutation array on element indices.

        Computed for this one map; ``aut_table`` holds all of them.
        """
        h = self.index[m.conjugator]
        perm = self.cayley[self.cayley[self.inverse_index[h]], h]
        for _ in range(m.frob % self.field.e):
            perm = self.frob_index[perm]
        perm = np.ascontiguousarray(perm, dtype=np.int32)
        perm.setflags(write=False)
        return perm

    def aut_row(self, m: AutMap) -> int:
        """The row of ``aut_table`` (and position in ``all_aut_maps``) of m."""
        return self.index[m.conjugator] * self.field.e + m.frob % self.field.e

    def compose_aut(self, a: AutMap, b: AutMap) -> AutMap:
        """The map "apply a, then b" in the same (conjugate, frob) shape."""
        e = self.field.e
        hb = self.index[b.conjugator]
        for _ in range((e - a.frob % e) % e):
            hb = int(self.frob_index[hb])
        conj = self.cayley[self.index[a.conjugator], hb]
        return AutMap(self.elements[conj], (a.frob + b.frob) % e)

    @cached_property
    def aut_table(self) -> np.ndarray:
        """All q(q^2-1)*e automorphisms as one read-only (|Aut| x n) int16 table.

        Row h*e + k is the permutation of AutMap(elements[h], k): one gather
        conjugates by a chunk of h at once, then e - 1 gathers apply the
        Frobenius.  The table is filled in 16 chunks of h, as the Cayley
        table is, so the build peaks near the int16 table itself.  For
        even q the centre is trivial, so the rows are distinct maps; this
        is verified at build time on the images of ``generators``, which
        fix an automorphism.
        """
        n, e = self.order, self.field.e
        table = np.empty((n, e, n), dtype=np.int16)
        step = -(-n // 16)
        for lo in range(0, n, step):
            rows = slice(lo, lo + step)
            h = np.arange(n)[rows]
            layer = self.cayley[self.cayley[self.inverse_index[h]], h[:, None]]
            table[rows, 0] = layer
            for k in range(1, e):
                layer = self.frob_index[layer]
                table[rows, k] = layer
        table = table.reshape(n * e, n)
        # sorted by the generators' images, two equal maps would be neighbours
        keys = table[:, list(self.generators)]
        keys = keys[np.lexsort(keys.T)]
        if (keys[1:] == keys[:-1]).all(axis=1).any():
            raise RuntimeError("duplicate automorphism map; centre not trivial?")
        table.setflags(write=False)
        return table

    @cached_property
    def all_aut_maps(self) -> tuple[AutMap, ...]:
        """All automorphisms in the row order of ``aut_table``, distinct as maps."""
        self.aut_table  # builds the table and checks that its rows are distinct
        return tuple(AutMap(x, k) for x in self.elements for k in range(self.field.e))

    def aut_transporter(self, s1: frozenset[int], s2: frozenset[int]) -> np.ndarray:
        """The rows of ``aut_table`` with s1 * alpha = s2, in ascending order.

        Automorphisms are injective, so s1 * alpha lying inside s2 is
        equality when the two sets have the same size.
        """
        inside = np.zeros(self.order, dtype=bool)
        inside[list(s2)] = True
        return np.flatnonzero(inside[self.aut_table[:, sorted(s1)]].all(axis=1))

    def aut_stabilizer(self, subgroup: frozenset[int]) -> tuple[AutMap, ...]:
        """All automorphisms mapping the subgroup onto itself setwise."""
        return tuple(self.all_aut_maps[i] for i in self.aut_transporter(subgroup, subgroup))


#: The largest supported q: the Cayley table of SL(2,32) takes 4.3 GB.
MAX_Q = 16


def check_q(q: int) -> int:
    """The degree e of q = 2^e; ValueError unless q is a power of 2 in [2, MAX_Q]."""
    if q < 2 or q & (q - 1):
        raise ValueError(f"q={q} is not a power of 2 (at least 2)")
    if q > MAX_Q:
        n = q * (q * q - 1)
        raise ValueError(
            f"q={q} is too large (q <= {MAX_Q}): SL(2,{q}) has {n} elements, so its "
            f"Cayley table alone needs {n * n * 4 / 1e9:.1f} GB of int32 (the largest "
            f"supported group, SL(2,{MAX_Q}), builds in about 0.15 s with a 110 MB peak RSS)"
        )
    return q.bit_length() - 1


_context_cache: dict[tuple[int, int], SL2] = {}


def sl2_context(q: int = 8, modulus: int | None = None) -> SL2:
    """Shared SL2 instance for a given field (built once per process)."""
    field = GF2e(check_q(q), modulus)
    key = (field.e, field.modulus)
    ctx = _context_cache.get(key)
    if ctx is None:
        ctx = SL2(field)
        _context_cache[key] = ctx
    return ctx
