"""Spans around the program's public functions, kept in memory.

The benchmark never changes the program: a traced run replaces module
attributes of ``sl2unitals`` with wrappers that open a span around each
call, including the attributes that ``search()`` and ``catalog.load``
look up at call time.  Cached properties are not wrapped; the workloads
touch them explicitly inside a span (see :func:`touch`), so their cost
lands in ``design`` and not in whichever caller happens to use them
first.

A span is (name, start, end, parent, op id).  A layer's self time is its
spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class NullTracer:
    """The untraced mode: spans and counts cost nothing."""

    op_id = None

    def span(self, name):
        return contextlib.nullcontext([name])

    def count(self, key, n=1):
        pass


class Tracer:
    """Spans and counts of a traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op_id = "setup"

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1, self.op_id]
        self.spans.append(rec)
        self.stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self.stack.pop()

    def count(self, key, n=1):
        self.counts[key] += n

    def self_ms(self) -> dict[str, float]:
        """Per span name, the summed self time in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0 - child[i]) * 1000.0
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op}) + "\n")


def touch(tracer, obj, attr: str, span_name: str) -> bool:
    """Evaluate a cached property inside a span; False if it does not exist.

    A property that is already cached costs nothing and opens no span;
    the first evaluation also counts as a call.
    """
    if not hasattr(type(obj), attr):
        return False
    if attr not in obj.__dict__:
        with tracer.span(span_name):
            getattr(obj, attr)
        tracer.count(span_name + "_calls")
    return True


# ----------------------------------------------------------------------
# Wrappers for the program's public functions
# ----------------------------------------------------------------------
def _spanned(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _iso_affine(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as rec:
            result = fn(*args, **kwargs)
            rec[0] = name + ("_yes" if result is not None else "_no")
            return result
    return wrapper


def _enumerate(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(group, subgroup, constraints=(), *args, **kwargs):
        method = kwargs.get("method", "auto")
        stabilize = any(c.mode == "stabilize" for c in constraints)
        if method == "auto":
            method = "structured" if stabilize else "generic"
        with tracer.span(f"hatsearch.enumerate_{method}"):
            cands, complete = fn(group, subgroup, constraints, *args, **kwargs)
        tracer.count("hatsearch.candidates", len(cands))
        return cands, complete
    return wrapper


def _cover(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            res = fn(*args, **kwargs)
        tracer.count("hatsearch.cover_nodes", res.nodes)
        tracer.count("hatsearch.cover_solutions", len(res.solutions))
        return res
    return wrapper


def _onan_count(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            res = fn(*args, **kwargs)
        tracer.count("onan.quads_checked", res.checked)
        tracer.count("onan.configurations", res.count)
        return res
    return wrapper


def _calls_only(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name + "_calls")
        return fn(*args, **kwargs)
    return wrapper


def _targets():
    from sl2unitals import catalog, design, hatsearch, morphisms, onan

    return [
        (catalog, "load", "catalog.load", _spanned),
        (catalog, "parse", "catalog.parse", _spanned),
        (catalog, "serialize", "catalog.serialize", _spanned),
        (design, "build_affine_unital", "design.build_affine_unital", _spanned),
        (hatsearch, "build_affine_unital", "design.build_affine_unital", _spanned),
        (design, "verify_affine_unital", "design.verify_affine_unital", _spanned),
        (hatsearch, "verify_affine_unital", "design.verify_affine_unital", _spanned),
        (design, "verify_design", "design.verify_design", _spanned),
        (design, "parallelism_by_name", "design.parallelism", _spanned),
        (design, "close", "design.close", _spanned),
        (morphisms, "stabilizer_of_identity", "morphisms.stabilizer_of_identity", _spanned),
        (morphisms, "verify_translation", "morphisms.verify_translation", _spanned),
        (morphisms, "closures_isomorphic", "morphisms.closures_isomorphic", _spanned),
        (morphisms, "are_isomorphic_affine", "morphisms.are_isomorphic_affine", _iso_affine),
        (onan, "contains_onan", "onan.contains_onan", _spanned),
        (onan, "count_onan_through", "onan.count_onan_through", _onan_count),
        (hatsearch, "search", "hatsearch.search", _spanned),
        (hatsearch, "enumerate_candidates", "hatsearch.enumerate", _enumerate),
        (hatsearch, "exact_cover", "hatsearch.exact_cover", _cover),
        (hatsearch, "hats_with_quotients", "hatsearch.hats_with_quotients", _spanned),
        (hatsearch, "canonical_hat_representative",
         "hatsearch.canonical_hat_representative", _calls_only),
    ]


def install(tracer) -> callable:
    """Wrap the public functions; returns a function that restores them.

    A function a later version of the program no longer has is skipped.
    """
    saved = []
    for module, attr, name, make in _targets():
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        saved.append((module, attr, fn))
        setattr(module, attr, make(tracer, fn, name))

    def restore():
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return restore
