"""Seeded inputs and reference answers for the benchmark.

Everything the program receives is generated here from the ``--seed``:
relabelled copies of the catalog systems, the O'Nan anchor samples, the
order of the q = 4 torus parameters and the choices the ``cli`` workload
makes.  The same seed always gives the same inputs.

The reference answers are the numbers of the source paper (and, for the
O'Nan counts, the values of the full per-point scans); every operation
of every workload is checked against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NAMES = ("classical8", "wu", "ou", "pu")
NONCLASSICAL = ("wu", "ou", "pu")
PARALLELISMS = ("flat", "natural")

# Affine unital of order 8 and its closure, a 2-(513, 9, 1) design.
AFFINE_COUNTS = {"points": 504, "blocks": 3647, "short": 567, "long": 3080}
CLOSED_COUNTS = {"points": 513, "blocks": 3648, "replication": 64}

#: Order and structure label of the identity stabilizer.
STABILIZER = {
    "classical8": (54, "C9:C6"),
    "wu": (18, "C3:C6"),
    "ou": (27, "C9:C3"),
    "pu": (27, "C9:C3"),
}

#: O'Nan configurations through one point.  Right translations act
#: transitively on the affine points, and on the ideal points of a
#: natural closure, so every anchor of one kind has the same count.
#: Ideal points of flat closures are not one orbit and are not sampled.
ONAN_THROUGH = {
    ("classical8", "affine"): 0,
    ("classical8", "flat"): 23760,
    ("classical8", "natural"): 0,
    ("classical8", "natural-ideal"): 0,
    ("wu", "affine"): 287496,
    ("wu", "flat"): 313056,
    ("wu", "natural"): 310041,
    ("wu", "natural-ideal"): 252504,
    ("ou", "affine"): 297756,
    ("ou", "flat"): 322326,
    ("ou", "natural"): 320031,
    ("ou", "natural-ideal"): 249480,
    ("pu", "affine"): 289008,
    ("pu", "flat"): 313038,
    ("pu", "natural"): 312903,
    ("pu", "natural-ideal"): 267624,
}

#: Candidate quadruples one anchored scan examines (C(64,2) block pairs,
#: times the cell pairs of each pair); computed, see ``quads_per_anchor``.
QUADS_AFFINE = 2_942_352
QUADS_CLOSED = 3_161_088

#: SHA-256 of the concatenated ``serialize`` output of the symmetric
#: q = 8 search.  The four systems behind it are isomorphic to
#: classical8, wu, ou and pu; ``test_inputs.py`` re-derives that.
SYMMETRIC_SEARCH_SHA256 = "c76c5a7174aa41dd549beda31e3be4ada4d69e127f5118ff2d7ece867c8aa78d"
SYMMETRIC_SEARCH_SYSTEMS = 4
#: The stabilize-only q = 8 search enumerates this many candidates.
STABILIZE_CANDIDATES = 7959
#: Node budget of the stabilize-only search; the full cover needs 41,402.
STABILIZE_NODE_BUDGET = 1000
#: Every unconstrained q = 4 search, for each irreducible torus.
Q4_CANDIDATES, Q4_SOLUTIONS, Q4_SYSTEMS = 202, 6, 2


def quads_per_anchor(block_sizes: list[int]) -> int:
    """Quadruples an anchored O'Nan scan checks, from the block sizes.

    For each pair of blocks through the anchor, with nx and ny further
    points on them, the scan takes unordered pairs of cells (x, y),
    (x', y') with x != x' and y != y'.
    """
    total = 0
    for i, a in enumerate(block_sizes):
        for b in block_sizes[i + 1:]:
            nx, ny = a - 1, b - 1
            total += nx * ny * (nx - 1) * (ny - 1) // 2
    return total


def relabel(group, system, rng: random.Random):
    """An isomorphic copy of a hat system under seeded relabelling.

    A seeded automorphism alpha of SL(2,q) is applied to S and to every
    base; each image base D is then replaced by a seeded translate
    D * d^-1 through the identity (d in D), which has the same quotient
    set and so describes the same unital.
    """
    from sl2unitals.design import HatSystem

    maps = group.all_aut_maps
    alpha = maps[rng.randrange(1, len(maps))]
    perm = group.aut_perm(alpha)
    cay, inv = group.cayley, group.inverse_index
    subgroup = frozenset(int(perm[x]) for x in system.subgroup)
    bases = []
    for base in system.bases:
        image = [int(perm[x]) for x in base]
        d_inv = int(inv[image[rng.randrange(len(image))]])
        bases.append(tuple(sorted(int(cay[x, d_inv]) for x in image)))
    return HatSystem(group, subgroup, tuple(bases))


def irreducible_tori(field) -> list[tuple[int, int]]:
    """All (d, t) with X^2 + tX + d irreducible, as the tests derive them."""
    return [
        (d, t)
        for d in field.elements()
        for t in field.nonzero_elements()
        if field.discriminant_check(d, t)
    ]


def corrupt_determinant(text: str, rng: random.Random) -> tuple[str, int]:
    """Break one matrix of a base line so its determinant is not 1.

    Returns the new text and the 1-based number of the broken line.  One
    entry changes whose partner in ad + bc is nonzero, so the product,
    and with it the determinant, changes.
    """
    lines = text.splitlines()
    base_lines = [i for i, line in enumerate(lines) if line.startswith("D ")]
    li = base_lines[rng.randrange(len(base_lines))]
    head, tail = lines[li].split(":", 1)
    mats = [m.split() for m in tail.split(",")]
    mi = rng.randrange(len(mats))
    codes = [int(c) for c in mats[mi]]
    partner = (3, 2, 1, 0)
    entry = rng.choice([k for k in range(4) if codes[partner[k]] != 0])
    codes[entry] ^= rng.randrange(1, 8)
    mats[mi] = [str(c) for c in codes]
    lines[li] = head + ": " + " , ".join(" ".join(m) for m in mats)
    return "\n".join(lines) + "\n", li + 1


@dataclass
class Inputs:
    """Everything the workloads take from the seed."""

    copies: dict          # name -> relabelled HatSystem
    copy_texts: dict      # name -> its serialized text
    positive_par: dict    # non-classical name -> parallelism of the positive closure pair
    affine_anchors: dict  # name -> 4 affine points
    closed_anchors: dict  # (name, parallelism) -> 2 affine points
    ideal_anchors: dict   # name -> 2 ideal points of the natural closure
    q4_tori: list         # irreducible (d, t) at q = 4, in seeded order
    cli: dict             # choices of the cli workload


def generate(group, systems: dict, q4_field, seed: int, serialize) -> Inputs:
    """All seeded inputs; ``systems`` maps catalog names to hat systems."""
    rng = random.Random(seed)
    copies, texts = {}, {}
    for name in NAMES:
        copies[name] = relabel(group, systems[name], rng)
        texts[name] = serialize(copies[name], name=name)
    n = group.order
    q = group.field.q
    positive_par = {name: rng.choice(PARALLELISMS) for name in NONCLASSICAL}
    affine_anchors = {name: rng.sample(range(n), 4) for name in NAMES}
    closed_anchors = {(name, p): rng.sample(range(n), 2) for name in NAMES for p in PARALLELISMS}
    ideal_anchors = {name: rng.sample(range(n, n + q + 1), 2) for name in NAMES}
    q4_tori = irreducible_tori(q4_field)
    rng.shuffle(q4_tori)
    closed_keys = [(a, p) for a in NONCLASSICAL for p in PARALLELISMS]
    iso_closed = rng.sample(closed_keys, 2)
    cli = {
        "verify": rng.choice(NAMES),
        "file": rng.choice(NAMES),
        "aut": rng.choice(NAMES),
        "close": (rng.choice(NAMES), rng.choice(PARALLELISMS)),
        "export": rng.choice(NAMES),
        "iso_closed": iso_closed,
        "torus": rng.choice(q4_tori),
    }
    cli["bad_text"], cli["bad_line"] = corrupt_determinant(texts[cli["file"]], rng)
    return Inputs(
        copies, texts, positive_par, affine_anchors, closed_anchors,
        ideal_anchors, q4_tori, cli,
    )
