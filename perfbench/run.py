"""Benchmark of the sl2unitals reproduction.

    python3 perfbench/run.py --workload catalog|onan|search|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One process drives the load in a closed loop: whole passes
over the workload's op list fill about ``--seconds`` seconds (at least
one pass).  Set-up time is measured in fresh processes.  Times
are scaled to a nominal machine speed (see ``speed.py``).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` the run makes one
untraced and one traced pass and reports the per-layer metrics.  Metric
names and units come from ``BENCHMARK.json``.  Run metadata goes to the
line before, and both lines, plus the spans of a traced run, are saved
under ``.perfbench/``.  See ``perfbench/README.md``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("catalog", "onan", "search", "cli")
SETUP_PROBES = 5
#: Passes stop short of this, so a run ends well within 180 s.
MAX_RUN_SECONDS = 120.0
#: The CPUs this process may use before it pins itself to one of them.
ALL_CPUS = os.sched_getaffinity(0)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 ops beyond it.

    Returns (value, percentile, ops beyond).  With 20 ops or fewer that
    percentile would not lie above the median, so the maximum is
    returned as p100 instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 20:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def op_kinds(kinds, latencies) -> dict:
    """Per op kind: count and median latency in ms."""
    by_kind: dict[str, list[float]] = {}
    for kind, dt in zip(kinds, latencies):
        by_kind.setdefault(kind, []).append(dt)
    return {k: [len(v), statistics.median(v) * 1000.0] for k, v in by_kind.items()}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Start and end of set-up in a fresh process: (spawn, 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    line = proc.stdout.readline()
    t1 = time.perf_counter()
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return t0, t1


def commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_pass(workload, env, runner, child_rss):
    from workloads import PASSES

    t0 = time.perf_counter()
    if workload == "cli":
        PASSES[workload](env, runner, ROOT, child_rss)
    else:
        PASSES[workload](env, runner)
    return time.perf_counter() - t0


def end_to_end(workload, args, env, probe, child_rss):
    from spans import NullTracer
    from workloads import Runner

    runner = Runner(NullTracer(), probe)
    first_raw = run_pass(workload, env, runner, child_rss)
    bounds = [0, runner.attempted]
    # The pass count follows from the first pass's normalised time, so that
    # it, and with it the tail percentile, does not flip with the speed.
    first = sum(probe.normalize(t0, t1) for t0, t1 in runner.windows)
    n_passes = max(1, min(round(args.seconds / first), int(MAX_RUN_SECONDS // first_raw)))
    for _ in range(n_passes - 1):
        run_pass(workload, env, runner, child_rss)
        bounds.append(runner.attempted)
    probe.stop()
    with open(os.path.join(OUT, f"timing-{workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"ops": list(zip(runner.kinds, runner.windows)), "passes": bounds,
                   "setup": env.setup_windows,
                   "kernel": list(zip(probe.starts, probe.ends))}, fh)
    norm = [probe.normalize(t0, t1) for t0, t1 in runner.windows]
    passes = [sum(norm[i:j]) for i, j in zip(bounds, bounds[1:])]
    setup = [probe.normalize(t0, t1) for t0, t1 in env.setup_windows]
    tail_value, tail_pct, beyond = tail(norm)
    if workload == "cli":
        rss_kb = max(child_rss)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "op_p50_ms": statistics.median(norm) * 1000.0,
        "op_tail_ms": tail_value * 1000.0,
        "peak_rss_mb": rss_kb / 1024.0,
        "ok_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    raw = runner.latencies
    meta = {
        "passes": len(passes),
        "ops": runner.attempted,
        "op_tail_percentile": tail_pct,
        "op_tail_ops_beyond": beyond,
        "setup_probes": len(setup),
        "pass_s": passes,
        "raw_pass_s": [sum(raw[i:j]) for i, j in zip(bounds, bounds[1:])],
        "setup_s_each": setup,
        "raw_setup_s_each": [t1 - t0 for t0, t1 in env.setup_windows],
        "raw_op_p50_ms": statistics.median(raw) * 1000.0,
        "op_kinds": op_kinds(runner.kinds, norm),
    }
    return values, meta, runner.attempted, runner.failed


def per_layer(workload, env, probe, child_rss, tracer):
    """One untraced and one traced pass; self times, counts and extras."""
    import inputs as ref
    from spans import NullTracer, install
    from workloads import Runner, with_tables

    from sl2unitals import catalog, design, onan

    untraced = Runner(NullTracer(), probe)
    run_pass(workload, env, untraced, child_rss)
    restore = install(tracer)
    env.tracer = tracer
    runner = Runner(tracer, probe)
    try:
        run_pass(workload, env, runner, child_rss)
    finally:
        restore()
        env.tracer = NullTracer()
    probe.stop()
    untraced_s = sum(probe.normalize(t0, t1) for t0, t1 in untraced.windows)
    traced_s = sum(probe.normalize(t0, t1) for t0, t1 in runner.windows)

    self_ms = tracer.self_ms()
    counts = tracer.counts
    v = {name + "_ms": ms for name, ms in self_ms.items() if not name.startswith("bench.op.")}
    v["bench.glue_ms"] = sum(ms for n, ms in self_ms.items() if n.startswith("bench.op."))
    for key in ("design.is_right_invariant_calls", "onan.quads_checked", "hatsearch.candidates",
                "hatsearch.canonical_hat_representative_calls", "hatsearch.cover_nodes"):
        v[key] = counts.get(key, 0)
    quads = counts.get("onan.quads_checked", 0)
    if quads:
        v["onan.quads_per_s"] = quads / (self_ms["onan.count_onan_through"] / 1000.0)
        v["onan.hit_ratio"] = counts["onan.configurations"] / quads
    nodes = counts.get("hatsearch.cover_nodes", 0)
    if nodes:
        v["hatsearch.cover_nodes_per_s"] = nodes / (self_ms["hatsearch.exact_cover"] / 1000.0)
        v["hatsearch.solutions_per_node"] = counts["hatsearch.cover_solutions"] / nodes
    v["trace.spans"] = len(tracer.spans)
    v["trace.overhead_s"] = traced_s - untraced_s
    v["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s

    extra = Runner(NullTracer())
    if workload == "onan":
        # The paper's absence claim, over all 504 anchors.  It takes over a
        # minute, too long to repeat in every timed run; a traced run makes
        # it once, after the traced pass.
        u = design.build_affine_unital(catalog.load("classical8", env.group))
        with_tables(NullTracer(), u)
        extra.op("contains_exhaustive", lambda: onan.contains_onan(u, exhaustive=True),
                 lambda found: found is False)
        v["onan.contains_onan_exhaustive_ms"] = extra.latencies[-1] * 1000.0
        cl = design.close(u, design.parallelism_by_name(u, "natural"))
        per_affine = ref.quads_per_anchor([len(u.blocks[b]) for b in u.point_blocks[0]])
        v["onan.quads_per_anchor_affine_computed"] = per_affine
        v["onan.quads_per_anchor_closed_computed"] = ref.quads_per_anchor(
            [len(cl.blocks[b]) for b in cl.point_blocks[0]])
        v["onan.exhaustive_quads_computed"] = u.n_points * per_affine
        v["design.pair_block_bytes_computed"] = u.n_points ** 2 * 4
        v["design.blocks_meet_bytes_computed"] = len(u.blocks) ** 2
    if workload == "catalog":
        v["design.threads2_ratio"] = threads2_ratio(env, extra)
    if workload == "search":
        one_branch = untraced.latencies[untraced.kinds.index("search_symmetric")]
        v["hatsearch.branches2_ratio"] = branches2_ratio(env, extra, one_branch)
    if workload == "cli":
        for kind, dt in zip(runner.kinds, runner.latencies):
            v[f"cli.{kind}_ms"] = dt * 1000.0
        v["cli.import_ms"] = cli_import_ms()
    meta = {"passes": 2, "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
            "setup_probes": len(env.setup_windows),
            "note": "per-layer times are raw, not speed-normalised"}
    attempted = untraced.attempted + runner.attempted + extra.attempted
    failed = untraced.failed + runner.failed + extra.failed
    return v, meta, attempted, failed


def threads2_ratio(env, runner) -> float:
    """Time of verify_affine_unital with 2 threads over 1, equal reports.

    0 if the program no longer has the ``threads`` knob.
    """
    import inspect

    from sl2unitals import catalog, design

    if "threads" not in inspect.signature(design.verify_affine_unital).parameters:
        return 0.0
    u = design.build_affine_unital(catalog.load("wu", env.group))
    times = {1: [], 2: []}
    reports = {}
    with all_cpus():
        for _ in range(5):
            for threads in (1, 2):
                t0 = time.perf_counter()
                reports[threads] = design.verify_affine_unital(u, threads=threads)
                times[threads].append(time.perf_counter() - t0)
    runner.op("threads_equal", lambda: (reports[1], reports[2]),
              lambda r: (r[0].checks, r[0].counts) == (r[1].checks, r[1].counts))
    return statistics.median(times[2]) / statistics.median(times[1])


def branches2_ratio(env, runner, one_branch_s) -> float:
    """Time of the symmetric search with 2 branch workers over 1."""
    import dataclasses

    import inputs as ref
    from workloads import search_digest

    from sl2unitals import hatsearch

    cfg = dataclasses.replace(env.cfg_symmetric, branches=2)
    with all_cpus():
        result = runner.op("search_branches2", lambda: hatsearch.search(cfg),
                           lambda r: search_digest(r.systems) == ref.SYMMETRIC_SEARCH_SHA256)
    return runner.latencies[-1] / one_branch_s if result is not None else 0.0


def cli_import_ms() -> float:
    """Import time of ``sl2unitals.cli`` in a fresh process, median of 3."""
    code = ("import time; t = time.perf_counter(); import sl2unitals.cli; "
            "print((time.perf_counter() - t) * 1000)")
    env = dict(os.environ, PYTHONPATH=SRC)
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(3)
    )


@contextlib.contextmanager
def all_cpus():
    """Lift the one-CPU pin for a measurement of parallel speed-up."""
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


def emit(args, spec_metrics, values, meta, attempted, failed):
    """Print the metadata line and the result line, and save both."""
    import numpy

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in spec_metrics}
    meta = dict(meta, workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, commit=commit(), nproc=os.cpu_count(),
                python=platform.python_version(), numpy=numpy.__version__,
                not_exercised=[m["name"] for m in spec_metrics if m["name"] not in values])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    for m in spec_metrics:
        print(f"{m['name']:>45} {metrics[m['name']]['value']:>16.6g} {m['unit']}",
              file=sys.stderr)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, print 'ready' and exit (a set-up probe)")
    args = parser.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(SRC, "sl2unitals")) or not os.path.isfile(spec_path):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(spec_path) as fh:
        spec = json.load(fh)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    spawner = None
    try:
        if args.setup_only:
            from spans import NullTracer
            from workloads import Env

            Env(args.workload, args.seed, NullTracer(), workdir)
            print("ready", flush=True)
            return 0
        # One CPU for the work, the speed probe and every subprocess.
        cpu = max(ALL_CPUS)
        os.sched_setaffinity(0, {cpu})
        if args.workload == "cli":
            # Started before numpy is imported, so that it stays small.
            spawner = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "spawner.py")],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        from spans import NullTracer, Tracer, install
        from workloads import Env

        from speed import SpeedProbe

        probe = SpeedProbe()
        probe.start()
        try:
            setup_windows = []
            for _ in range(SETUP_PROBES):
                with probe.paused():
                    setup_windows.append(setup_probe(args.workload, args.seed))
            t0 = time.perf_counter()
            tracer = Tracer() if args.trace else NullTracer()
            restore = install(tracer) if args.trace else (lambda: None)
            try:
                env = Env(args.workload, args.seed, tracer, workdir)
            finally:
                restore()
            env.tracer = NullTracer()
            env.setup_windows = setup_windows
            env.probe = probe
            env.spawner = spawner
            main_setup_s = time.perf_counter() - t0
            child_rss: list[int] = []
            if args.trace:
                values, meta, attempted, failed = per_layer(
                    args.workload, env, probe, child_rss, tracer)
                tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
                metrics = spec["per_layer"]
            else:
                values, meta, attempted, failed = end_to_end(
                    args.workload, args, env, probe, child_rss)
                metrics = spec["end_to_end"]
        finally:
            probe.stop()
        meta.update(cpu=cpu, kernel_median_ms=probe.kernel_median_s() * 1000.0,
                    kernel_samples=len(probe.starts), raw_main_setup_s=main_setup_s,
                    raw_run_s=time.perf_counter() - T_START)
        emit(args, metrics, values, meta, attempted, failed)
        return 0
    finally:
        if spawner is not None:
            spawner.stdin.close()
            spawner.stdout.close()
            spawner.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
