"""Launcher for traced `mforge` child processes.

    python perfbench/tracer.py OUT MODE ARGS...

imports mforge, wraps the public functions of each module from the
outside, runs `mforge.cli.main(ARGS)` and, at exit, writes what it
recorded to the JSON file OUT.  Nothing in mforge is edited.

MODE "spans" records one span (id, name, start, end, parent) per call of a
wrapped function, in one list per thread; the file holds one run (one
process), and the benchmark computes self times from its spans.
MODE "count" only counts calls: GF(q) operations and rank queries are far
too frequent to time one by one without distorting every time around them.

A wrapped name that no longer exists is skipped and listed under
"missing", so the benchmark can report the metric as absent.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import mforge.cli
from mforge import (
    constructions,
    corpus,
    gf,
    matroid,
    minors,
    representability,
    serialize,
    suites,
)

MODULES = [mforge.cli, constructions, corpus, gf, matroid, minors,
           representability, serialize, suites]

# Module-level functions timed as spans: (module, function, span name).
FUNCTIONS = [
    (matroid, "materialize_bases", "materialize"),
    (minors, "are_isomorphic", "iso"),
    (minors, "has_minor", "has_minor"),
    (minors, "iso_is_valid", "iso_verify"),
    (minors, "longest_line_minor", "longest_line"),
    (minors, "longline_step", "longline_step"),
    (minors, "dense_restriction", "dense_restriction"),
    (minors, "unavoidable_minor_of_extension", "unavoidable_minor"),
    (representability, "spike_witness_search", "witness_search"),
    (representability, "swirl_witness_search", "witness_search"),
    (representability, "brute_force_linear_rep", "brute_force_rep"),
    (corpus, "corpus_generate", "corpus"),
    (serialize, "load_path", "load"),
    (suites, "run_suite", "suite.run"),
] + [
    (constructions, name, "construct")
    for name in ("pg", "ag", "uniform", "theta_graph", "free_spike", "free_swirl",
                 "two_sum_chain", "principal_geometry_extension", "density_witness",
                 "parallel_connection", "two_sum")
]

# Methods timed as spans: (class, method, span name).
METHODS = [
    (gf.GF, "__init__", "gf.build"),
    (matroid.Matroid, "flats_of_rank", "flats"),
    (matroid.Matroid, "closure", "closure"),
] + [
    (cls, "point_classes", "point_classes")
    for cls in vars(matroid).values()
    if isinstance(cls, type) and "point_classes" in vars(cls)
]

GF_OPS = ("add", "sub", "mul", "inv", "neg", "pow")


class Recorder:
    """Spans and counters of one process; every thread appends to its own list."""

    def __init__(self):
        self.names: dict[str, int] = {}
        self.ids = itertools.count(1)  # next() is atomic under the GIL
        self.stacks: dict[int, list[int]] = {}
        self.spans: dict[int, list] = {}
        self.counters: dict[str, itertools.count] = {}
        self.missing: list[str] = []

    def counter(self, name: str):
        return self.counters.setdefault(name, itertools.count()).__next__

    def span(self, name: str, fn, parent_of=None):
        """fn wrapped in a span; parent_of(args) may name the parent span."""
        nid = self.names.setdefault(name, len(self.names))
        stacks, spans, ids = self.stacks, self.spans, self.ids
        get_ident, clock = threading.get_ident, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tid = get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
                spans[tid] = []
            sid = next(ids)
            parent = stack[-1] if stack else (parent_of() if parent_of else 0)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[tid].append((sid, nid, start, end, parent))

        return wrapper

    def current(self) -> int:
        stack = self.stacks.get(threading.get_ident())
        return stack[-1] if stack else 0

    def dump(self, path: str, args: list[str], code) -> None:
        names = sorted(self.names, key=self.names.get)
        doc = {
            "run": args,
            "exit": code,
            "names": names,
            "threads": [spans for spans in self.spans.values()],
            "counters": {k: next(c) for k, c in self.counters.items()},
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _replace_everywhere(old, new) -> None:
    """Rebind a module-level function in every mforge namespace that imported it."""
    for mod in MODULES + [sys.modules["mforge"]]:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _rank_backends():
    return [cls for cls in vars(matroid).values()
            if isinstance(cls, type) and issubclass(cls, matroid.Matroid)
            and "_rank_mask" in vars(cls) and cls is not matroid.Matroid]


def _patch(rec: Recorder, owner, name: str, make) -> None:
    """Replace owner.name by make(old); a name that is gone is recorded as missing."""
    old = vars(owner).get(name)
    if old is None:
        rec.missing.append(f"{owner.__name__}.{name}")
    elif isinstance(owner, type):
        setattr(owner, name, make(old))
    else:
        _replace_everywhere(old, make(old))


def install_spans(rec: Recorder) -> None:
    for mod, name, span in FUNCTIONS:
        _patch(rec, mod, name, lambda fn, span=span: rec.span(span, fn))
    for cls, name, span in METHODS:
        _patch(rec, cls, name, lambda fn, span=span: rec.span(span, fn))
    backends = _rank_backends()
    if not backends:
        rec.missing.append("Matroid._rank_mask overrides")
    for cls in backends:
        _patch(rec, cls, "_rank_mask", lambda fn, cls=cls: rec.span(f"rank.{cls.__name__}", fn))
    _install_suites(rec)
    mforge.cli.main = rec.span("cli.main", mforge.cli.main)


def _install_suites(rec: Recorder) -> None:
    """Time each suite's case-list build, and each case under its suite.run span."""
    for name, build in list(suites.SUITES.items()):
        def traced_build(seed, caps, build=build):
            owner = rec.current()
            cases = rec.span("suite.build", build)(seed, caps)
            return [(cid, rec.span("case", thunk, parent_of=lambda o=owner: o))
                    for cid, thunk in cases]
        suites.SUITES[name] = traced_build


def _counted(tick, fn):
    def counted(*args, **kwargs):
        tick()
        return fn(*args, **kwargs)

    return counted


def install_counts(rec: Recorder) -> None:
    gf_tick = rec.counter("gf.ops")
    for op in GF_OPS:
        _patch(rec, gf.GF, op, lambda fn: _counted(gf_tick, fn))
    _patch(rec, matroid.LinearMatroid, "__init__",
           lambda fn: _counted(rec.counter("linear.built"), fn))

    def count_rank(rank):
        ticks: dict[type, object] = {}

        def counted_rank(self, *args):
            tick = ticks.get(type(self))
            if tick is None:
                tick = ticks[type(self)] = rec.counter(f"rank.queries.{type(self).__name__}")
            tick()
            return rank(self, *args)

        return counted_rank

    _patch(rec, matroid.Matroid, "rank", count_rank)

    def count_fallbacks(base_flats):
        fallback = rec.counter("flats.fallbacks")

        def counted_flats(self, k):
            # the generic DFS reached from a class that has its own method is a fallback
            if type(self)._flats_impl is not counted_flats:
                fallback()
            return base_flats(self, k)

        return counted_flats

    _patch(rec, matroid.Matroid, "_flats_impl", count_fallbacks)

    def count_found(has_minor):
        found = rec.counter("has_minor.found")

        def counted_has_minor(*args, **kwargs):
            wit = has_minor(*args, **kwargs)
            if wit is not None:
                found()
            return wit

        return counted_has_minor

    _patch(rec, minors, "has_minor", count_found)


def main(argv: list[str]) -> int:
    out, mode, args = argv[0], argv[1], argv[2:]
    rec = Recorder()
    if mode == "spans":
        install_spans(rec)
    elif mode == "count":
        install_counts(rec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    code = None
    try:
        code = mforge.cli.main(args)
        return code
    finally:
        rec.dump(out, args, code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
