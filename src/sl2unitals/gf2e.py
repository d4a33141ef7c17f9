"""Arithmetic in small binary fields GF(2^e) with an explicit modulus.

Field elements are plain integers ("codes") in [0, 2^e): the base-2
digits of the code are the coefficients of 1, z, z^2, ... where z is the
residue class of X modulo the chosen irreducible polynomial
(little-endian, constant term in bit 0).  With the default degree-3
modulus X^3 + X + 1 (bitmask 0b1011) the powers z^0..z^6 have codes
1, 2, 4, 3, 6, 7, 5.
"""

from __future__ import annotations

import numpy as np

#: Default irreducible polynomial per extension degree, as a bitmask.
DEFAULT_MODULI = {
    1: 0b11,       # X + 1
    2: 0b111,      # X^2 + X + 1
    3: 0b1011,     # X^3 + X + 1
    4: 0b10011,    # X^4 + X + 1
    5: 0b100101,   # X^5 + X^2 + 1
}


def poly_degree(m: int) -> int:
    """Degree of the GF(2) polynomial encoded by bitmask *m* (-1 for 0)."""
    return m.bit_length() - 1


def poly_mul_raw(a: int, b: int) -> int:
    """Carry-less product of two GF(2)[X] bitmasks, unreduced."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        b >>= 1
    return p


def poly_mod(a: int, m: int) -> int:
    """Remainder of bitmask *a* modulo bitmask *m* over GF(2)."""
    dm = poly_degree(m)
    da = poly_degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = poly_degree(a)
    return a


def is_irreducible(m: int) -> bool:
    """Trial division of *m* by every lower-degree polynomial.

    A negative *m* is no bitmask, so no polynomial, and is rejected.
    """
    d = poly_degree(m)
    if d < 1 or m < 0:
        return False
    if d == 1:
        return True
    for f in range(2, 1 << (d // 2 + 1)):
        if poly_degree(f) >= 1 and poly_mod(m, f) == 0:
            return False
    return True


class GF2e:
    """The field GF(2^e) for a given irreducible modulus.

    Parameters
    ----------
    e : int
        Extension degree, 1 <= e <= 5.
    modulus : int, optional
        Bitmask of an irreducible degree-e polynomial over GF(2).
        Defaults to the entry of ``DEFAULT_MODULI``.
    """

    def __init__(self, e: int, modulus: int | None = None):
        if not 1 <= e <= 5:
            raise ValueError(f"extension degree e={e} out of supported range [1, 5]")
        if modulus is None:
            modulus = DEFAULT_MODULI[e]
        if poly_degree(modulus) != e:
            raise ValueError(f"modulus {modulus:#b} does not have degree {e}")
        if not is_irreducible(modulus):
            raise ValueError(f"modulus {modulus:#b} is reducible over GF(2)")
        self.e = e
        self.modulus = modulus
        self.q = 1 << e

        # Full q x q product table; q <= 32 so this is always tiny.
        q = self.q
        tab = np.zeros((q, q), dtype=np.int16)
        for a in range(q):
            for b in range(q):
                tab[a, b] = poly_mod(poly_mul_raw(a, b), modulus)
        self._mul = tab
        inv = np.zeros(q, dtype=np.int16)
        for a in range(1, q):
            row = tab[a]
            inv[a] = int(np.nonzero(row == 1)[0][0])
        self._inv = inv
        # One Frobenius step x -> x^2 for each element.
        self._frob = tab[np.arange(q), np.arange(q)].copy()

    def __repr__(self) -> str:
        return f"GF2e(e={self.e}, modulus={self.modulus:#b})"

    def __eq__(self, other) -> bool:
        return isinstance(other, GF2e) and (self.e, self.modulus) == (other.e, other.modulus)

    def __hash__(self) -> int:
        return hash((self.e, self.modulus))

    # ------------------------------------------------------------------
    # Element arithmetic (elements are ints in [0, q))
    # ------------------------------------------------------------------
    def add(self, a: int, b: int) -> int:
        """Field addition: XOR of codes."""
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via the precomputed table."""
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero input raises ValueError."""
        if a == 0:
            raise ValueError("division by zero in GF(2^e)")
        return int(self._inv[a])

    def frobenius(self, a: int, k: int = 1) -> int:
        """k-fold Frobenius a^(2^k); k is reduced modulo e."""
        x = a
        for _ in range(k % self.e):
            x = int(self._frob[x])
        return x

    def discriminant_check(self, d: int, t: int) -> bool:
        """True iff X^2 + tX + d has no root in the field.

        Decided by evaluating the polynomial at every field element.
        """
        for x in self.elements():
            if self.mul(x, x) ^ self.mul(t, x) ^ d == 0:
                return False
        return True

    # ------------------------------------------------------------------
    # Iteration helpers
    # ------------------------------------------------------------------
    def elements(self) -> range:
        """All element codes 0 .. q-1."""
        return range(self.q)

    def nonzero_elements(self) -> range:
        """All nonzero element codes 1 .. q-1."""
        return range(1, self.q)

    @property
    def mul_table(self) -> np.ndarray:
        """The q x q multiplication table (read-only view)."""
        return self._mul
