"""Command-line interface.

Subcommands: verify, aut, iso, onan, close, search, export.  Output mixes
human-readable lines with machine-readable lines prefixed "@" ("@key
value"); --format machine suppresses the human text.  Exit codes: 0 all
checks passed, 1 semantic failure (axiom, isomorphism, expectation),
2 input error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import catalog
from .design import (
    AffineUnital,
    UnitalError,
    admissibility,
    build_affine_unital,
    close,
    parallelism_by_name,
    verify_affine_unital,
    verify_design,
)
from .sl2q import SL2, AutMap, sl2_context

# The search, isomorphism and O'Nan modules are imported by the commands
# that run them, so the other commands do not pay for their start-up.
if TYPE_CHECKING:
    from .hatsearch import SearchConfig

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


class Output:
    def __init__(self, fmt: str):
        self.machine_only = fmt == "machine"

    def say(self, text: str):
        if not self.machine_only:
            print(text)

    def emit(self, key: str, value):
        print(f"@{key} {value}")


def _check_field(group: SL2, q: int | None, modulus: int | None, source: str):
    """ValueError unless the --q and --modulus flags, where given, agree
    with the field that the input states."""
    for flag, given, key, stated in (
        ("--q", q, "q", group.field.q),
        ("--modulus", modulus, "modulus", group.field.modulus),
    ):
        if given is not None and given != stated:
            raise ValueError(f"{flag} {given} disagrees with {source}, which has {key} {stated}")


def _load_source(source: str, q: int | None, modulus: int | None):
    """A hat system from a catalog name or a file path."""
    if source in catalog.NAMES:
        system, meta = catalog.load(source), {}
    else:
        path = Path(source)
        if not path.exists():
            raise ValueError(f"unknown catalog name or missing file: {source}")
        system, meta = catalog.parse(path.read_bytes())
    _check_field(system.group, q, modulus, source)
    return system, meta


def _build(source: str, q: int | None, modulus: int | None):
    system, meta = _load_source(source, q, modulus)
    return build_affine_unital(system), meta


def cmd_verify(args, out: Output) -> int:
    system, meta = _load_source(args.source, args.q, args.modulus)
    adm = admissibility(system)
    for message in adm.q_failures:
        out.say(message)
    out.emit("condition-Q", "fail" if adm.q_failures else "pass")
    if adm.p_failure is not None:
        out.say(str(adm.p_failure))
    if adm.error() is not None:
        out.emit("condition-P", "fail")
        out.emit("status", "fail")
        return EXIT_FAIL
    out.emit("condition-P", "pass")
    unital = AffineUnital(system)
    rep = verify_affine_unital(unital)
    for k, v in rep.counts.items():
        out.emit(k, v)
    for c in rep.checks:
        out.say(f"{c.name}: {'pass' if c.ok else 'FAIL'} {c.detail}".rstrip())
        out.emit(f"axiom-{c.name}", "pass" if c.ok else "fail")
    status = rep.ok
    if "parallelism" in meta:
        par = parallelism_by_name(unital, meta["parallelism"])
        crep = verify_design(close(unital, par))
        for k, v in crep.counts.items():
            out.emit(f"closed-{k}", v)
        for c in crep.checks:
            out.say(f"closure {c.name}: {'pass' if c.ok else 'FAIL'} {c.detail}".rstrip())
            out.emit(f"closed-check-{c.name}", "pass" if c.ok else "fail")
        status = status and crep.ok
    out.emit("status", "pass" if status else "fail")
    return EXIT_OK if status else EXIT_FAIL


def cmd_aut(args, out: Output) -> int:
    from .morphisms import stabilizer_of_identity

    unital, _ = _build(args.source, args.q, args.modulus)
    group, subgroup = unital.group, unital.system.subgroup
    maps, desc = stabilizer_of_identity(unital)
    full = len(maps) * group.order
    bound = len(group.aut_transporter(subgroup, subgroup)) * group.order
    index = bound // full if full else 0
    out.say(
        f"stabilizer {len(maps)} ({desc.label}), full {full}, index {index} in the sharp bound"
    )
    out.emit("stabilizer", len(maps))
    out.emit("structure", desc.label)
    out.emit("full", full)
    out.emit("index", index)
    return EXIT_OK


def cmd_iso(args, out: Output) -> int:
    from .morphisms import are_isomorphic_affine, closures_isomorphic

    u1, _ = _build(args.a, args.q, args.modulus)
    u2, _ = _build(args.b, args.q, args.modulus)
    if args.closed:
        p1 = parallelism_by_name(u1, args.closed[0])
        p2 = parallelism_by_name(u2, args.closed[1])
        same = closures_isomorphic(u1, p1, u2, p2)
        out.say("closures isomorphic" if same else "closures not isomorphic")
        out.emit("isomorphic", "yes" if same else "no")
        return EXIT_OK if same else EXIT_FAIL
    witness = are_isomorphic_affine(u1, u2)
    if witness is None:
        out.say("not isomorphic")
        out.emit("isomorphic", "no")
        return EXIT_FAIL
    conj = witness.alpha.conjugator
    out.say(
        f"isomorphic via conjugator {conj}, frobenius {witness.alpha.frob}, translator index {witness.translator}"
    )
    out.emit("isomorphic", "yes")
    out.emit("witness-conjugator", ",".join(str(c) for c in conj))
    out.emit("witness-frob", witness.alpha.frob)
    return EXIT_OK


def cmd_onan(args, out: Output) -> int:
    from .onan import count_onan_through, find_onan

    if args.budget is not None:
        if args.count_through is None:
            raise ValueError("--budget applies only with --count-through")
        if args.budget < 1:
            raise ValueError(f"--budget must be at least 1, got {args.budget}")
    unital, _ = _build(args.source, args.q, args.modulus)
    if args.count_through is not None:
        try:
            point = catalog.matrix_index(unital.group, args.count_through.replace(",", " ").split())
        except ValueError as exc:
            raise ValueError(f"--count-through {args.count_through}: {exc}") from None
        res = count_onan_through(unital, point, budget=args.budget)
        out.say(f"{res.count} configurations through the point ({'complete' if res.complete else 'partial'})")
        out.emit("count", res.count)
        out.emit("complete", "yes" if res.complete else "no")
        out.emit("checked", res.checked)
        if not res.complete:
            return EXIT_BUDGET
        return EXIT_OK
    cfg = find_onan(unital, anchor=None if args.exhaustive else 0)
    found = cfg is not None
    if found:
        out.say("configuration found")
        out.emit("found", "yes")
        out.emit("points", " ".join(str(p) for p in sorted(cfg.points)))
    else:
        out.say("none found")
        out.emit("found", "no")
    if args.expect_found and not found:
        return EXIT_FAIL
    return EXIT_OK


def cmd_close(args, out: Output) -> int:
    system, _ = _load_source(args.source, args.q, args.modulus)
    unital = build_affine_unital(system)
    par = parallelism_by_name(unital, args.parallelism)
    rep = verify_design(close(unital, par))
    name = args.source if args.source in catalog.NAMES else None
    Path(args.outfile).write_text(
        catalog.serialize(system, name=name, parallelism=args.parallelism)
    )
    out.say(f"closure written to {args.outfile}")
    for k, v in rep.counts.items():
        out.emit(k, v)
    out.emit("status", "pass" if rep.ok else "fail")
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_export(args, out: Output) -> int:
    system, _ = _load_source(args.name, args.q, args.modulus)
    name = args.name if args.name in catalog.NAMES else None
    Path(args.outfile).write_text(catalog.serialize(system, name=name))
    out.say(f"exported to {args.outfile}")
    out.emit("written", args.outfile)
    return EXIT_OK


_JSON_TYPES = {
    int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object",
}

#: The JSON type of each documented key of a search config.
_CONFIG_KEYS = {
    "q": int, "modulus": int, "torus": list, "constraints": list, "candidate_limit": int,
    "node_budget": int, "time_budget_sec": float, "branches": int, "dedup": str,
    "method": str, "out_dir": str,
}


def _typed(value, kind: type, where: str):
    """The value, or a ValueError naming ``where`` unless it has the JSON type ``kind``."""
    ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok or isinstance(value, bool):
        raise ValueError(f"search config: {where} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _int_list(value, where: str, length: int | None = None) -> tuple[int, ...]:
    items = _typed(value, list, where)
    if length is not None and len(items) != length:
        raise ValueError(f"search config: {where} must have {length} entries, got {value!r}")
    return tuple(_typed(v, int, f"each entry of {where}") for v in items)


def _known_keys(spec: dict, known, where: str):
    """ValueError naming the first key of ``spec`` that is not in ``known``."""
    for key in spec:
        if key not in known:
            raise ValueError(f"search config: unknown key {key!r} in {where}")


def _search_config(spec, args) -> SearchConfig:
    from .hatsearch import SearchConfig, SymmetryConstraint

    spec = _typed(spec, dict, "the top level")
    _known_keys(spec, _CONFIG_KEYS, "the top level")
    spec = {k: v for k, v in spec.items() if v is not None}  # null reads as not given
    for key, kind in _CONFIG_KEYS.items():
        if key in spec:
            _typed(spec[key], kind, repr(key))
    q = spec.get("q", 8)
    group = sl2_context(q, spec.get("modulus"))
    _check_field(group, args.q, args.modulus, args.config)
    named = {"f": catalog.F_MATRIX, "one": group.one}
    if q == 8 and group is catalog.context():  # g is a matrix over the catalog's field
        named.update(g=catalog.G_MATRIX, g3=catalog.constants(group).U[1].conjugator)
    constraints = []
    for ci, cs in enumerate(spec.get("constraints", [])):
        where = f"constraint {ci}"
        cs = _typed(cs, dict, where)
        _known_keys(cs, ("generators", "mode", "orbit_shape"), where)
        if "mode" not in cs:
            raise ValueError(f"search config: {where} has no 'mode'")
        gens = []
        for k, g in enumerate(_typed(cs.get("generators", []), list, f"{where} 'generators'")):
            g = _typed(g, dict, f"generator {k} of {where}")
            _known_keys(g, ("conjugator", "frob"), f"generator {k} of {where}")
            conj = g.get("conjugator", "one")
            if isinstance(conj, str):
                if conj not in named:
                    raise ValueError(f"unknown named conjugator {conj!r}")
                conj = named[conj]
            else:
                conj = group.element(*_int_list(conj, f"the conjugator of {where}", 4))
            frob = _typed(g.get("frob", 0), int, f"the 'frob' of {where}")
            gens.append(AutMap(conj, frob))
        constraints.append(
            SymmetryConstraint(
                tuple(gens),
                cs["mode"],
                _int_list(cs.get("orbit_shape", []), f"the 'orbit_shape' of {where}"),
            )
        )
    return SearchConfig(
        q=q,
        modulus=spec.get("modulus"),
        torus_params=_int_list(spec["torus"], "'torus'", 2) if "torus" in spec else None,
        constraints=tuple(constraints),
        candidate_limit=spec.get("candidate_limit"),
        node_budget=spec.get("node_budget"),
        time_budget_sec=(
            args.budget_sec if args.budget_sec is not None else spec.get("time_budget_sec")
        ),
        branches=args.threads if args.threads is not None else spec.get("branches", 1),
        dedup=spec.get("dedup", "iso"),
        method=spec.get("method", "auto"),
    )


def cmd_search(args, out: Output) -> int:
    import hashlib
    import json

    from .hatsearch import search

    try:
        spec = json.loads(catalog.decode(Path(args.config).read_bytes()))
    except (catalog.ParseError, json.JSONDecodeError) as exc:
        raise ValueError(f"search config {args.config}: {exc}") from None
    cfg = _search_config(spec, args)
    t0 = time.monotonic()
    result = search(cfg)
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    out_dir = Path(args.out or spec.get("out_dir") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, system in enumerate(result.systems):
        path = out_dir / f"system_{i:03d}.unital"
        path.write_text(catalog.serialize(system))
        out.say(f"wrote {path}")
    digest = hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode()
    ).hexdigest()[:16]
    out.emit("config-hash", digest)
    out.emit("solutions", len(result.systems))
    out.emit("candidates", result.stats.get("candidates", 0))
    out.emit("elapsed-ms", elapsed_ms)
    for stage in ("enumerate", "cover", "verify"):
        out.emit("stage-ms", f"{stage} {int(result.stats.get(f'{stage}_sec', 0) * 1000)}")
    for counter in ("enumerate_nodes", "cover_nodes"):
        out.emit(counter.replace("_", "-"), result.stats.get(counter, 0))
    out.emit("complete", "yes" if result.complete else "no")
    return EXIT_OK if result.complete else EXIT_BUDGET


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sl2unitals",
        description="Affine SL(2,q)-unitals: verification, automorphisms, closures, search",
    )
    parser.add_argument(
        "--q", type=int, default=None, help="field size; where given, the input's q must match"
    )
    parser.add_argument(
        "--modulus", type=int, default=None,
        help="field modulus bitmask; where given, the input's modulus must match",
    )
    parser.add_argument(
        "--threads", type=int, default=None,
        help="search branch workers (default: the config's branches, or 1)",
    )
    parser.add_argument("--budget-sec", type=float, default=None, help="time budget")
    parser.add_argument(
        "--format", choices=("human", "machine"), default="human", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check (Q), (P) and the unital axioms")
    p.add_argument("source", help="catalog name or file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("aut", help="automorphism group of an affine unital")
    p.add_argument("source")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("iso", help="isomorphism test between two unitals")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument(
        "--closed",
        nargs=2,
        metavar=("PI1", "PI2"),
        help="compare closures under these parallelisms (flat|natural)",
    )
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("onan", help="O'Nan configuration search")
    p.add_argument("source")
    p.add_argument("--count-through", metavar="A,B,C,D", help="count through this matrix")
    p.add_argument("--budget", type=int, default=None, help="quadruple check budget")
    p.add_argument("--expect-found", action="store_true")
    p.add_argument("--exhaustive", action="store_true", help="scan every anchor point")
    p.set_defaults(func=cmd_onan)

    p = sub.add_parser("close", help="close by a parallelism and write the file")
    p.add_argument("source")
    p.add_argument("parallelism", choices=("flat", "natural"))
    p.add_argument("outfile")
    p.set_defaults(func=cmd_close)

    p = sub.add_parser("search", help="hat-system search from a JSON config")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory for found systems")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("export", help="write a system in the file format")
    p.add_argument("name")
    p.add_argument("outfile")
    p.set_defaults(func=cmd_export)

    args = parser.parse_args(argv)
    out = Output(args.format)
    try:
        return args.func(args, out)
    except (catalog.ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnitalError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
