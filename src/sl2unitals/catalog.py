"""Built-in hat systems for q = 8 and the hat-system file format.

Four systems are built in: the classical affine unital of order 8 and
the three non-classical ones (named "wu", "ou", "pu" after the published
Weihnachts-, Oster- and Pfingstunital).  The defining matrices below are
their only source: two literal base blocks per system, the rest derived
by entrywise Frobenius or conjugation.  ``load`` builds the system from
them and checks conditions (Q) and (P), so a transcription slip fails
loudly; ``serialize`` writes the expanded file form, whose bytes the
tests pin.

Matrices are written as 4-tuples of field codes over GF(8) with modulus
X^3 + X + 1; the generator z of the multiplicative group has code 2 and
z^0..z^6 are 1, 2, 4, 3, 6, 7, 5.
"""

from __future__ import annotations

from typing import NamedTuple

from .design import HatSystem, check_P, check_Q
from .gf2e import is_irreducible, poly_degree
from .sl2q import SL2, AutMap, Element, check_q, sl2_context

NAMES = ("classical8", "wu", "ou", "pu")

#: Generator of the cyclic subgroup C of order 9: (z^2, z^4; z^4, z).
G_MATRIX: Element = (4, 6, 6, 2)
#: The involution (0, 1; 1, 0).
F_MATRIX: Element = (0, 1, 1, 0)

# z-power shorthand: codes of z^0..z^6.
_Z = (1, 2, 4, 3, 6, 7, 5)
_I = (1, 0, 0, 1)

_CLASSICAL_H1 = (
    _I,
    (_Z[5], _Z[0], _Z[5], _Z[6]),
    (_Z[4], _Z[2], _Z[0], _Z[2]),
    (0, _Z[1], _Z[6], _Z[5]),
    (_Z[3], _Z[6], _Z[4], _Z[5]),
    (_Z[3], _Z[1], _Z[6], 0),
    (_Z[0], _Z[2], _Z[0], _Z[6]),
    (_Z[4], _Z[0], _Z[5], _Z[0]),
    (_Z[5], 0, 0, _Z[2]),
)
_CLASSICAL_H4 = (
    _I,
    (_Z[5], 0, _Z[6], _Z[2]),
    (_Z[1], _Z[6], _Z[4], _Z[0]),
    (_Z[0], _Z[5], _Z[6], _Z[5]),
    (_Z[1], _Z[4], 0, _Z[6]),
    (_Z[5], _Z[2], _Z[4], _Z[4]),
    (0, _Z[2], _Z[5], _Z[5]),
    (0, _Z[4], _Z[3], _Z[4]),
    (_Z[2], _Z[5], _Z[5], _Z[6]),
)
_WU_D1 = (
    _I,
    (_Z[5], _Z[0], _Z[5], _Z[6]),
    (_Z[4], _Z[2], _Z[0], _Z[2]),
    (0, _Z[1], _Z[6], _Z[2]),
    (_Z[0], _Z[4], _Z[2], _Z[2]),
    (_Z[0], _Z[1], _Z[6], 0),
    (_Z[0], _Z[2], _Z[0], _Z[6]),
    (_Z[4], _Z[0], _Z[5], _Z[0]),
    (_Z[5], 0, 0, _Z[2]),
)
_WU_D4 = (
    _I,
    (_Z[5], 0, _Z[6], _Z[2]),
    (_Z[1], _Z[6], _Z[4], _Z[0]),
    (0, _Z[1], _Z[6], _Z[5]),
    (_Z[4], 0, _Z[2], _Z[3]),
    (_Z[5], _Z[2], _Z[3], _Z[6]),
    (0, _Z[2], _Z[5], _Z[5]),
    (0, _Z[4], _Z[3], _Z[4]),
    (_Z[2], _Z[5], _Z[5], _Z[6]),
)
_OU_D1 = (
    _I,
    (_Z[5], _Z[0], _Z[5], _Z[6]),
    (_Z[4], _Z[2], _Z[0], _Z[2]),
    (_Z[0], _Z[1], _Z[6], 0),
    (0, _Z[1], _Z[6], _Z[2]),
    (_Z[0], _Z[4], _Z[2], _Z[2]),
    (_Z[3], _Z[5], _Z[3], _Z[0]),
    (_Z[5], _Z[4], _Z[2], _Z[4]),
    (_Z[2], 0, 0, _Z[5]),
)
_OU_D4 = (
    _I,
    (_Z[5], 0, _Z[6], _Z[2]),
    (_Z[1], _Z[6], _Z[4], _Z[0]),
    (_Z[5], _Z[2], _Z[5], 0),
    (_Z[3], _Z[4], _Z[6], _Z[5]),
    (_Z[0], _Z[0], _Z[3], _Z[1]),
    (_Z[0], _Z[1], _Z[0], _Z[3]),
    (_Z[1], _Z[2], _Z[0], _Z[5]),
    (_Z[1], 0, _Z[1], _Z[6]),
)


class Constants(NamedTuple):
    """The named elements and minimal subgroups of the q = 8 setting."""

    g: Element
    f: Element
    C: frozenset[int]
    F: tuple[AutMap, ...]
    U: tuple[AutMap, ...]
    L: tuple[AutMap, ...]


def context() -> SL2:
    """The shared SL(2,8) context with the default modulus."""
    return sl2_context(8)


def constants(group: SL2 | None = None) -> Constants:
    group = group or context()
    C = group.cyclic_subgroup(1, 1)
    g3 = group.elements[group.cayley[group.cayley[group.idx(G_MATRIX), group.idx(G_MATRIX)], group.idx(G_MATRIX)]]
    ident = group.identity_aut
    F = (ident, AutMap(F_MATRIX, 0))
    gamma_g3 = AutMap(g3, 0)
    U = (ident, gamma_g3, group.compose_aut(gamma_g3, gamma_g3))
    phi = AutMap(group.one, 1)
    L = (ident, phi, group.compose_aut(phi, phi))
    return Constants(G_MATRIX, F_MATRIX, C, F, U, L)


def _block_indices(group: SL2, matrices) -> tuple[int, ...]:
    return tuple(sorted(group.idx(group.element(*m)) for m in matrices))


def _frob_images(group: SL2, base: tuple[int, ...]) -> list[tuple[int, ...]]:
    fr = group.frob_index
    out = [base]
    for _ in range(2):
        out.append(tuple(sorted(int(fr[x]) for x in out[-1])))
    return out


def _conj_images(group: SL2, base: tuple[int, ...], h: Element) -> list[tuple[int, ...]]:
    hi = group.idx(h)
    out = [base]
    for _ in range(2):
        out.append(tuple(sorted(group.conj_idx(x, hi) for x in out[-1])))
    return out


def _build_system(group: SL2, name: str) -> HatSystem:
    C = group.cyclic_subgroup(1, 1)
    if name == "classical8":
        h1 = _block_indices(group, _CLASSICAL_H1)
        h4 = _block_indices(group, _CLASSICAL_H4)
        bases = _frob_images(group, h1) + _frob_images(group, h4)
    elif name == "wu":
        d1 = _block_indices(group, _WU_D1)
        d4 = _block_indices(group, _WU_D4)
        bases = _frob_images(group, d1) + _frob_images(group, d4)
    elif name == "ou":
        d1 = _block_indices(group, _OU_D1)
        d4 = _block_indices(group, _OU_D4)
        bases = _conj_images(group, d1, G_MATRIX) + _conj_images(group, d4, G_MATRIX)
    elif name == "pu":
        d1 = _block_indices(group, _OU_D1)
        d4f = tuple(sorted(group.conj_idx(x, group.idx(F_MATRIX)) for x in _block_indices(group, _OU_D4)))
        bases = _conj_images(group, d1, G_MATRIX) + _conj_images(group, d4f, G_MATRIX)
    else:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(NAMES)}")
    return HatSystem(group, C, tuple(bases))


def load(name: str, group: SL2 | None = None) -> HatSystem:
    """Build a named system from its defining matrices, checking
    conditions (Q) and (P)."""
    group = group or context()
    system = _build_system(group, name)
    for k, base in enumerate(system.bases):
        if not check_Q(group, base):
            raise UnitalDataError(f"{name}: condition (Q) fails for base {k}")
    if not check_P(system):
        raise UnitalDataError(f"{name}: condition (P) fails")
    return system


class UnitalDataError(Exception):
    pass


class ParseError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def serialize(
    system: HatSystem,
    name: str | None = None,
    parallelism: str | None = None,
) -> str:
    """Line-oriented ASCII encoding of a hat system.

    Header: "unital v1", "q <int>", "modulus <bitmask int>"; optional
    "name <str>" and "parallelism flat|natural"; subgroup as an explicit
    "S set" line; one "D <i> : a b c d , ..." line per base with elements
    in index order.  Round-trips exactly through :func:`parse`.
    """
    group = system.group
    lines = ["unital v1", f"q {group.field.q}", f"modulus {group.field.modulus}"]
    if name:
        lines.append(f"name {name}")
    if parallelism:
        lines.append(f"parallelism {parallelism}")
    svals = " , ".join(
        " ".join(str(c) for c in group.elements[i]) for i in sorted(system.subgroup)
    )
    lines.append(f"S set {svals}")
    for k, base in enumerate(system.bases):
        dvals = " , ".join(
            " ".join(str(c) for c in group.elements[i]) for i in sorted(base)
        )
        lines.append(f"D {k + 1} : {dvals}")
    return "\n".join(lines) + "\n"


def matrix_index(group: SL2, tokens: list[str]) -> int:
    """The element index of a matrix written as four field codes, or a
    ValueError saying what is wrong with them."""
    if len(tokens) != 4:
        raise ValueError(f"expected 4 codes per matrix, got {len(tokens)}")
    try:
        codes = [int(t) for t in tokens]
    except ValueError:
        raise ValueError(f"non-integer matrix entry in {tokens}") from None
    q = group.field.q
    if any(not 0 <= c < q for c in codes):
        raise ValueError(f"matrix entry out of field range [0,{q})")
    return group.idx(group.element(*codes))


def _parse_matrix(tokens: list[str], lineno: int, group: SL2) -> int:
    try:
        return matrix_index(group, tokens)
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None


def decode(data: bytes) -> str:
    """The UTF-8 text of ``data``, or a ParseError at the line of the first
    byte that is not UTF-8 (lines counted as ``str.splitlines`` counts them)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        message = f"not UTF-8 text: byte {data[exc.start]:#04x} ({exc.reason})"
        raise ParseError(message, line) from None


def parse(text: str | bytes, group: SL2 | None = None) -> tuple[HatSystem, dict[str, str]]:
    """Parse the file format (text, or bytes that must be UTF-8); returns
    the system and header metadata."""
    if isinstance(text, bytes):
        text = decode(text)
    q = None
    modulus = None
    meta: dict[str, str] = {}
    subgroup: frozenset[int] | None = None
    bases: list[tuple[int, tuple[int, ...]]] = []
    body: list[tuple[int, str]] = []

    lines = text.splitlines()
    version_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not version_seen:
            if line != "unital v1":
                raise ParseError(f"expected header 'unital v1', got {line!r}", lineno)
            version_seen = True
            continue
        key, *values = line.split()
        if key not in ("q", "modulus", "name", "parallelism"):
            body.append((lineno, line))
        elif not values:
            raise ParseError(f"header line {key!r} has no value", lineno)
        elif key in ("name", "parallelism"):
            meta[key] = values[0]
        else:
            try:
                number = int(values[0])
            except ValueError:
                raise ParseError(f"{key} must be an integer, got {values[0]!r}", lineno) from None
            if key == "q":
                q, q_line = number, lineno
            else:
                modulus, modulus_line = number, lineno
    if not version_seen:
        raise ParseError("missing 'unital v1' header", len(lines) or 1)
    if q is None or modulus is None:
        raise ParseError("missing q or modulus header line", len(lines))
    try:
        e = check_q(q)
    except ValueError as exc:
        raise ParseError(str(exc), q_line) from None
    if poly_degree(modulus) != e or not is_irreducible(modulus):
        raise ParseError(f"modulus {modulus} is not irreducible of degree {e}", modulus_line)
    if group is None:
        group = sl2_context(q, modulus)
    elif (group.field.q, group.field.modulus) != (q, modulus):
        line = q_line if group.field.q != q else modulus_line
        raise ParseError("file field does not match the supplied group", line)

    for lineno, line in body:
        parts = line.split()
        if parts[0] == "S" and len(parts) > 1 and parts[1] == "gen":
            gen = _parse_matrix(parts[2:6], lineno, group)
            subgroup = group.subgroup_generated([gen])
            if len(subgroup) != q + 1:
                raise ParseError(
                    f"S generator has order {len(subgroup)}, expected {q + 1}", lineno
                )
        elif parts[0] == "S" and len(parts) > 1 and parts[1] == "set":
            mats = [m.split() for m in line.split(":", 1)[-1].replace("S set", "").split(",")]
            subgroup = frozenset(_parse_matrix(m, lineno, group) for m in mats)
            if len(subgroup) != q + 1:
                raise ParseError(
                    f"S set has {len(subgroup)} distinct elements, expected {q + 1}", lineno
                )
        elif parts[0] == "D":
            if ":" not in line:
                raise ParseError("base line missing ':'", lineno)
            head, tail = line.split(":", 1)
            mats = [m.split() for m in tail.split(",")]
            idxs = [_parse_matrix(m, lineno, group) for m in mats]
            block = tuple(sorted(idxs))
            if len(set(idxs)) != len(idxs):
                raise ParseError("repeated matrix in base", lineno)
            if len(block) != q + 1:
                raise ParseError(f"base has {len(block)} elements, expected {q + 1}", lineno)
            if 0 not in block:
                raise ParseError("base does not contain the identity", lineno)
            try:
                k = int(head.split()[1])
            except (IndexError, ValueError):
                raise ParseError("base line must read 'D <index> : ...'", lineno) from None
            bases.append((k, block))
        else:
            raise ParseError(f"unrecognised line {line!r}", lineno)

    if subgroup is None:
        raise ParseError("missing S line", len(lines))
    bases.sort(key=lambda kv: kv[0])
    return HatSystem(group, subgroup, tuple(b for _, b in bases)), meta
