"""The four workloads: set-up and one pass over each op list.

A pass calls the program through module attributes (``catalog.load``,
not a name bound at import), so that a traced run sees every call.  Each
op is timed on its own and then checked against the reference answers
in :mod:`inputs`, outside its timing.  An op that raises or answers
wrongly counts as failed; ops that depend on it then fail too.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from itertools import combinations

import inputs as ref
from spans import touch

from sl2unitals import catalog, design, hatsearch, morphisms, onan, sl2q


class Runner:
    """Runs ops in a closed loop and records latency and outcome.

    With a speed probe, a kernel sample is taken right before and right
    after each op, outside its timing, so that even a short op is scaled
    by the speed of the moment it ran.
    """

    def __init__(self, tracer, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.windows: list[tuple[float, float]] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0

    def op(self, kind, fn, check):
        self.attempted += 1
        self.tracer.op_id = self.attempted
        error = None
        if self.probe is not None:
            self.probe.sample()
        with self.tracer.span("bench.op." + kind):
            t0 = time.perf_counter()
            try:
                result = fn()
            except Exception as exc:  # a failing op is counted, not fatal
                result, error = None, exc
            t1 = time.perf_counter()
        if self.probe is not None:
            self.probe.sample()
        self.windows.append((t0, t1))
        self.kinds.append(kind)
        if error is None:
            try:
                ok = bool(check(result))
            except Exception as exc:
                ok, error = False, exc
        else:
            ok = False
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                detail = f"{type(error).__name__}: {error}" if error else "wrong answer"
                print(f"FAIL op {self.attempted} {kind}: {detail}", file=sys.stderr)
        return result if ok else None

    @property
    def latencies(self) -> list[float]:
        return [t1 - t0 for t0, t1 in self.windows]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Env:
    """The shared context and seeded inputs of one workload."""

    def __init__(self, workload, seed, tracer, workdir):
        self.tracer = tracer
        self.workdir = workdir
        with tracer.span("sl2q.context"):
            self.group = sl2q.sl2_context(8)
            self.C = self.group.cyclic_subgroup(1, 1)
            self.group.sylow_subgroups
            self.q4 = sl2q.sl2_context(4)
            self.q4.sylow_subgroups
        with tracer.span("sl2q.all_aut_maps"):
            self.group.all_aut_maps
        systems = {name: catalog.load(name, self.group) for name in ref.NAMES}
        self.inputs = ref.generate(self.group, systems, self.q4.field, seed, catalog.serialize)
        self.named = catalog.constants(self.group)
        if workload == "search":
            stab = hatsearch.SymmetryConstraint((self.named.U[1],), "stabilize")
            orbits = hatsearch.SymmetryConstraint((self.named.L[1],), "orbits", orbit_shape=(3, 3))
            self.cfg_symmetric = hatsearch.SearchConfig(constraints=(stab, orbits))
            self.cfg_budget = hatsearch.SearchConfig(
                constraints=(stab,), node_budget=ref.STABILIZE_NODE_BUDGET
            )
        if workload == "cli":
            self.cli = CliInputs(self, systems)


def affine_ok(u) -> bool:
    return (
        u.n_points == ref.AFFINE_COUNTS["points"]
        and len(u.blocks) == ref.AFFINE_COUNTS["blocks"]
        and len(u.short_ids) == ref.AFFINE_COUNTS["short"]
    )


def affine_report_ok(rep) -> bool:
    return rep.ok and all(rep.counts[k] == v for k, v in ref.AFFINE_COUNTS.items())


def closed_report_ok(rep) -> bool:
    return rep.ok and all(rep.counts[k] == v for k, v in ref.CLOSED_COUNTS.items())


# ----------------------------------------------------------------------
# catalog: build, verify, automorphisms, isomorphisms, closures
# ----------------------------------------------------------------------
def catalog_pass(env: Env, run: Runner):
    g, inp, tr = env.group, env.inputs, env.tracer
    units, copies, closed = {}, {}, {}
    for name in ref.NAMES:
        s = run.op("load", lambda: catalog.load(name, g),
                   lambda s: s.subgroup == env.C and len(s.bases) == 6)
        u = units[name] = run.op("build", lambda: design.build_affine_unital(s), affine_ok)
        run.op("verify", lambda: design.verify_affine_unital(u), affine_report_ok)
        run.op("stabilizer", lambda: morphisms.stabilizer_of_identity(u),
               lambda r: (len(r[0]), r[1].label) == ref.STABILIZER[name])
    for name in ref.NAMES:
        want = inp.copies[name]
        s, _ = run.op("parse", lambda: catalog.parse(inp.copy_texts[name], g),
                      lambda r: (r[0].subgroup, r[0].bases, r[1]["name"])
                      == (want.subgroup, want.bases, name)) or (None, None)
        cu = copies[name] = run.op("build", lambda: design.build_affine_unital(s), affine_ok)
        run.op("verify", lambda: design.verify_affine_unital(cu), affine_report_ok)
        run.op("iso_affine_yes", lambda: morphisms.are_isomorphic_affine(units[name], cu),
               lambda w: w is not None)
    for a, b in combinations(ref.NAMES, 2):
        run.op("iso_affine_no", lambda: morphisms.are_isomorphic_affine(units[a], units[b]),
               lambda w: w is None)
    for name in ref.NAMES:
        for pn in ref.PARALLELISMS:
            def build_closure():
                par = design.parallelism_by_name(units[name], pn)
                cl = design.close(units[name], par)
                return par, cl, design.verify_design(cl)
            closed[name, pn] = run.op("close", build_closure, lambda r: closed_report_ok(r[2]))

    def closures_iso(u1, p1, u2, p2):
        touch(tr, p1, "is_right_invariant", "design.is_right_invariant")
        touch(tr, p2, "is_right_invariant", "design.is_right_invariant")
        return morphisms.closures_isomorphic(u1, p1, u2, p2)

    keys = [(n, p) for n in ref.NONCLASSICAL for p in ref.PARALLELISMS]
    for k1, k2 in combinations(keys, 2):
        run.op("iso_closed_no",
               lambda: closures_iso(units[k1[0]], closed[k1][0], units[k2[0]], closed[k2][0]),
               lambda same: same is False)
    for name in ref.NONCLASSICAL:
        pn = inp.positive_par[name]

        def positive():
            par = design.parallelism_by_name(copies[name], pn)
            return closures_iso(units[name], closed[name, pn][0], copies[name], par)
        run.op("iso_closed_yes", positive, lambda same: same is True)
    for name in ref.NONCLASSICAL:
        for si, syl in enumerate(g.sylow_subgroups):
            def translation():
                cl = closed[name, "natural"][1]
                return morphisms.verify_translation(cl, syl, cl.ideal_point_of_sylow(si))
            run.op("translation", translation, lambda r: r is True)


# ----------------------------------------------------------------------
# onan: the exhaustive absence scan and per-point counts
# ----------------------------------------------------------------------
def with_tables(tr, structure):
    """Touch the incidence tables the O'Nan kernel reads."""
    touch(tr, structure, "pair_block", "design.pair_block")
    touch(tr, structure, "blocks_meet", "design.blocks_meet")
    return structure


def onan_pass(env: Env, run: Runner):
    g, inp, tr = env.group, env.inputs, env.tracer
    for name in ref.NAMES:
        u = run.op("prepare_affine",
                   lambda: with_tables(tr, design.build_affine_unital(catalog.load(name, g))),
                   affine_ok)
        run.op("contains", lambda: onan.contains_onan(u),
               lambda found: found is (name != "classical8"))
        want = ref.ONAN_THROUGH[name, "affine"]
        for a in inp.affine_anchors[name]:
            run.op("count_affine", lambda: onan.count_onan_through(u, a),
                   lambda r: (r.count, r.complete, r.checked) == (want, True, ref.QUADS_AFFINE))
        for pn in ref.PARALLELISMS:
            cl = run.op("prepare_closed",
                        lambda: with_tables(tr, design.close(u, design.parallelism_by_name(u, pn))),
                        lambda cl: cl.n_points == ref.CLOSED_COUNTS["points"])
            anchors = [(a, pn) for a in inp.closed_anchors[name, pn]]
            if pn == "natural":
                anchors += [(a, "natural-ideal") for a in inp.ideal_anchors[name]]
            for a, kind in anchors:
                want = ref.ONAN_THROUGH[name, kind]
                run.op("count_closed", lambda: onan.count_onan_through(cl, a),
                       lambda r: (r.count, r.complete, r.checked) == (want, True, ref.QUADS_CLOSED))
            del cl
        del u


# ----------------------------------------------------------------------
# search: structured enumeration, exact cover, generic enumeration
# ----------------------------------------------------------------------
def search_digest(systems) -> str:
    return hashlib.sha256("".join(catalog.serialize(s) for s in systems).encode()).hexdigest()


def search_pass(env: Env, run: Runner):
    def q4_searches(tori):
        for torus in tori:
            run.op("search_q4",
                   lambda: hatsearch.search(hatsearch.SearchConfig(q=4, torus_params=torus)),
                   lambda r: r.complete and len(r.systems) == ref.Q4_SYSTEMS
                   and r.stats["candidates"] == ref.Q4_CANDIDATES
                   and r.stats["solutions"] == ref.Q4_SOLUTIONS)

    # The short q = 4 searches run twice, before and after the long ones,
    # so that the median op does not rest on one moment of the run.
    q4_searches(env.inputs.q4_tori)
    run.op("search_symmetric", lambda: hatsearch.search(env.cfg_symmetric),
           lambda r: r.complete and len(r.systems) == ref.SYMMETRIC_SEARCH_SYSTEMS
           and search_digest(r.systems) == ref.SYMMETRIC_SEARCH_SHA256)
    run.op("search_budget", lambda: hatsearch.search(env.cfg_budget),
           lambda r: not r.complete and not r.systems
           and r.stats["cover_nodes"] == ref.STABILIZE_NODE_BUDGET + 1
           and r.stats["candidates"] == ref.STABILIZE_CANDIDATES)
    q4_searches(reversed(env.inputs.q4_tori))


# ----------------------------------------------------------------------
# cli: one subprocess per command
# ----------------------------------------------------------------------
class CliInputs:
    """Files and expected answers of the cli workload."""

    def __init__(self, env: Env, systems):
        inp, wd = env.inputs, env.workdir
        c = inp.cli
        self.file_name = c["file"]
        self.copy_path = os.path.join(wd, "copy.unital")
        self.bad_path = os.path.join(wd, "bad-determinant.unital")
        self.closed_path = os.path.join(wd, "closed.unital")
        self.export_path = os.path.join(wd, "export.unital")
        self.search_path = os.path.join(wd, "search-q4.json")
        self.search_out = os.path.join(wd, "search-out")
        with open(self.copy_path, "w") as fh:
            fh.write(inp.copy_texts[c["file"]])
        with open(self.bad_path, "w") as fh:
            fh.write(c["bad_text"])
        with open(self.search_path, "w") as fh:
            fh.write('{"q": 4, "torus": [%d, %d], "constraints": []}\n' % c["torus"])
        self.export_text = catalog.serialize(systems[c["export"]], name=c["export"])


class CliResult:
    def __init__(self, code, output, maxrss_kb):
        self.code = code
        self.output = output
        self.maxrss_kb = maxrss_kb
        self.keys = {}
        for line in output.splitlines():
            if line.startswith("@"):
                key, _, value = line[1:].partition(" ")
                self.keys[key] = value

    def has(self, code, **want) -> bool:
        return self.code == code and all(
            self.keys.get(k.replace("_", "-")) == str(v) for k, v in want.items()
        )


def cli_call(spawner, root, args) -> CliResult:
    """Run ``python -m sl2unitals --format machine ARGS`` and wait for it."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    argv = [sys.executable, "-m", "sl2unitals", "--format", "machine", *args]
    spawner.stdin.write(json.dumps({"argv": argv, "cwd": root, "env": env}) + "\n")
    spawner.stdin.flush()
    reply = json.loads(spawner.stdout.readline())
    return CliResult(reply["code"], reply["output"], reply["maxrss_kb"])


def cli_pass(env: Env, run: Runner, root, child_rss: list):
    c, f = env.inputs.cli, env.cli
    aff = {k: v for k, v in ref.AFFINE_COUNTS.items() if k != "long"}
    clo = {"closed_" + k: v for k, v in ref.CLOSED_COUNTS.items()}

    def call(*args):
        with env.probe.paused():
            r = cli_call(env.spawner, root, [str(a) for a in args])
        child_rss.append(r.maxrss_kb)
        return r

    def op(kind, args, check):
        run.op(kind, lambda: call(*args), check)

    op("verify", ["verify", c["verify"]], lambda r: r.has(0, status="pass", **aff))
    op("verify_file", ["verify", f.copy_path], lambda r: r.has(0, status="pass", **aff))
    name, pn = c["close"]
    op("close", ["close", name, pn, f.closed_path],
       lambda r: r.has(0, status="pass", **ref.CLOSED_COUNTS))
    op("verify_closed", ["verify", f.closed_path], lambda r: r.has(0, status="pass", **clo))
    order, label = ref.STABILIZER[c["aut"]]
    op("aut", ["aut", c["aut"]],
       lambda r: r.has(0, stabilizer=order, structure=label, full=order * env.group.order))
    op("iso", ["iso", f.file_name, f.copy_path], lambda r: r.has(0, isomorphic="yes"))
    (a, pa), (b, pb) = c["iso_closed"]
    op("iso_closed", ["iso", a, b, "--closed", pa, pb], lambda r: r.has(1, isomorphic="no"))
    op("onan", ["onan", "wu"],
       lambda r: r.has(0, found="yes") and len(r.keys.get("points", "").split()) == 6)
    op("onan_count", ["onan", "wu", "--count-through", "1,0,0,1"],
       lambda r: r.has(0, count=ref.ONAN_THROUGH["wu", "affine"], complete="yes",
                       checked=ref.QUADS_AFFINE))

    def exported(r):
        with open(f.export_path) as fh:
            return r.has(0) and fh.read() == f.export_text
    op("export", ["export", c["export"], f.export_path], exported)
    op("search", ["search", f.search_path, "--out", f.search_out],
       lambda r: r.has(0, solutions=ref.Q4_SYSTEMS, candidates=ref.Q4_CANDIDATES, complete="yes"))
    op("input_error", ["verify", f.bad_path],
       lambda r: r.code == 2 and f"line {c['bad_line']}:" in r.output
       and "determinant" in r.output)


PASSES = {"catalog": catalog_pass, "onan": onan_pass, "search": search_pass, "cli": cli_pass}
