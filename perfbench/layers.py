"""Per-layer metrics from the span and count files of a traced run.

Each layer is an mforge module.  A span's self time is its duration minus
the part of it that its child spans cover; `X.s` metrics are inclusive
times of the outermost X spans (a recursive or nested X is not counted
twice).  Every metric is reported on every workload; one that the
workload never exercises reads 0 and gets a line in `absent`.
"""

from __future__ import annotations

import json
import statistics

BACKENDS = ("LinearMatroid", "BasesMatroid", "MinorView", "DualView", "TruncationView",
            "PrincipalExtensionView", "DirectSumView", "ParallelConnectionView")

SUITE_NAMES = ("field-axioms", "rank-axioms", "kung", "lemma4", "lemma5", "lemma6",
               "spike-oracle", "swirl-oracle", "rep-cross", "growth-witness",
               "spike-structure", "swirl-structure", "eventual-base")

# Inclusive-time metrics: metric name -> span name.
INCLUSIVE = {
    "gf.build_s": "gf.build",
    "iso.s": "iso",
    "has_minor.s": "has_minor",
    "iso_verify.s": "iso_verify",
    "longest_line.s": "longest_line",
    "longline_step.s": "longline_step",
    "dense_restriction.s": "dense_restriction",
    "unavoidable_minor.s": "unavoidable_minor",
    "witness_search.s": "witness_search",
    "brute_force_rep.s": "brute_force_rep",
    "construct.s": "construct",
    "corpus.s": "corpus",
    "load.s": "load",
    "suite.build_s": "suite.build",
}

# Self-time metrics: metric name -> span name.
SELF = {
    "flats.self_s": "flats",
    "closure.self_s": "closure",
    "point_classes.self_s": "point_classes",
    "materialize.self_s": "materialize",
    **{f"rank.self_s.{b}": f"rank.{b}" for b in BACKENDS},
}

PER_LAYER: list[tuple[str, str]] = (
    [("gf.ops", "count"), ("gf.fields_built", "count"), ("gf.build_s", "s")]
    + [(f"rank.{kind}.{b}", unit) for b in BACKENDS
       for kind, unit in (("queries", "count"), ("cold", "count"),
                          ("hit_ratio", "ratio"), ("self_s", "s"))]
    + [("flats.calls", "count"), ("flats.self_s", "s"), ("flats.fallbacks", "count"),
       ("closure.self_s", "s"), ("point_classes.self_s", "s"), ("materialize.self_s", "s"),
       ("linear.built", "count"),
       ("iso.calls", "count"), ("iso.s", "s"), ("has_minor.calls", "count"),
       ("has_minor.s", "s"), ("has_minor.iso_attempts", "count"), ("has_minor.yield", "ratio"),
       ("iso_verify.s", "s"), ("longest_line.s", "s"), ("longline_step.s", "s"),
       ("dense_restriction.s", "s"), ("unavoidable_minor.s", "s"),
       ("witness_search.s", "s"), ("brute_force_rep.s", "s"),
       ("construct.s", "s"), ("corpus.s", "s"), ("load.s", "s"),
       ("suite.build_s", "s"), ("case.count", "count"), ("case.p50_ms", "ms"),
       ("case.max_ms", "ms")]
    + [(f"suite.{name}_s", "s") for name in SUITE_NAMES]
    + [("cli.cpu_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s")]
)


def _union_length(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanStats:
    """Counts, self times and outermost inclusive times by span name."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.outer_ns: dict[str, int] = {}
        self.case_ns: list[int] = []
        self.iso_in_has_minor = 0
        self.unattributed_ns = 0
        self.missing: set[str] = set()

    def add_file(self, doc: dict, wall_ns: int) -> None:
        names = doc["names"]
        self.missing.update(doc["missing"])
        spans = sorted((s for thread in doc["threads"] for s in thread), key=lambda s: s[0])
        children: dict[int, list[tuple[int, int]]] = {}
        for sid, nid, start, end, parent in spans:
            children.setdefault(parent, []).append((start, end))
        root_ids = {i for i, n in enumerate(names) if n == "cli.main"}
        has_minor_id = names.index("has_minor") if "has_minor" in names else -1
        ancestors: dict[int, int] = {0: 0}  # sid -> bitmask of enclosing span names
        covered = []
        for sid, nid, start, end, parent in spans:
            up = ancestors.get(parent, 0)
            ancestors[sid] = up | 1 << nid
            name = names[nid]
            dur = end - start
            kids = children.get(sid)
            self_ns = dur - (_union_length((max(a, start), min(b, end)) for a, b in kids)
                             if kids else 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + self_ns
            if not up >> nid & 1:
                self.outer_ns[name] = self.outer_ns.get(name, 0) + dur
            if name == "case":
                self.case_ns.append(dur)
            if name == "iso" and has_minor_id >= 0 and up >> has_minor_id & 1:
                self.iso_in_has_minor += 1
            if nid not in root_ids:
                covered.append((start, end))
        self.unattributed_ns += max(wall_ns - _union_length(covered), 0)


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compute(base, spanned, counted, suites_run) -> tuple[dict, dict]:
    """Per-layer metric values and absence notes.

    base, spanned and counted are the untraced, span and count passes:
    lists of (label, wall_ns, cpu_s, trace file or None) per invocation.
    """
    stats = SpanStats()
    for _, wall_ns, _, path in spanned:
        stats.add_file(load(path), wall_ns)
    counters: dict[str, int] = {}
    for _, _, _, path in counted:
        doc = load(path)
        stats.missing.update(doc["missing"])
        for key, val in doc["counters"].items():
            counters[key] = counters.get(key, 0) + val

    def secs(ns):
        return ns / 1e9

    values: dict[str, float] = {
        "gf.ops": counters.get("gf.ops", 0),
        "gf.fields_built": stats.calls.get("gf.build", 0),
        "flats.calls": stats.calls.get("flats", 0),
        "flats.fallbacks": counters.get("flats.fallbacks", 0),
        "linear.built": counters.get("linear.built", 0),
        "iso.calls": stats.calls.get("iso", 0),
        "has_minor.calls": stats.calls.get("has_minor", 0),
        "has_minor.iso_attempts": stats.iso_in_has_minor,
        "case.count": len(stats.case_ns),
        "case.p50_ms": statistics.median(stats.case_ns) / 1e6 if stats.case_ns else 0.0,
        "case.max_ms": max(stats.case_ns) / 1e6 if stats.case_ns else 0.0,
        "cli.cpu_s": sum(cpu for _, _, cpu, _ in base),
        "trace.overhead_s": secs(sum(w for _, w, _, _ in spanned) - sum(w for _, w, _, _ in base)),
        "trace.unattributed_s": secs(stats.unattributed_ns),
    }
    found = counters.get("has_minor.found", 0)
    values["has_minor.yield"] = found / stats.iso_in_has_minor if stats.iso_in_has_minor else 0.0
    for metric, span in INCLUSIVE.items():
        values[metric] = secs(stats.outer_ns.get(span, 0))
    for metric, span in SELF.items():
        values[metric] = secs(stats.self_ns.get(span, 0))
    for b in BACKENDS:
        queries = counters.get(f"rank.queries.{b}", 0)
        cold = stats.calls.get(f"rank.{b}", 0)
        values[f"rank.queries.{b}"] = queries
        values[f"rank.cold.{b}"] = cold
        values[f"rank.hit_ratio.{b}"] = 1 - cold / queries if queries else 0.0
    walls: dict[str, int] = {}
    for label, wall_ns, _, _ in base:
        walls[label] = walls.get(label, 0) + wall_ns
    for name in SUITE_NAMES:
        values[f"suite.{name}_s"] = secs(walls.get(f"verify {name}", 0))

    # A metric is absent when the calls it measures never happen in the workload;
    # a 0 measured on calls that did happen (no fallback, no memo hit) is a value.
    activity = {name: values[name] for name, unit in PER_LAYER if unit == "count"}
    for metric, span in {**INCLUSIVE, **SELF}.items():
        activity[metric] = stats.calls.get(span, 0)
    for b in BACKENDS:
        for kind in ("cold", "hit_ratio", "self_s"):
            activity[f"rank.{kind}.{b}"] = values[f"rank.queries.{b}"]
    activity["flats.fallbacks"] = values["flats.calls"]
    activity["has_minor.iso_attempts"] = activity["has_minor.yield"] = values["has_minor.calls"]
    activity["case.p50_ms"] = activity["case.max_ms"] = values["case.count"]
    absent = {}
    for name in SUITE_NAMES:
        if name not in suites_run:
            absent[f"suite.{name}_s"] = f"the workload does not run `verify {name}`"
    for name, _ in PER_LAYER:
        if name in activity and not activity[name]:
            absent[name] = "no call reaches this layer in this workload"
    if stats.missing:
        absent["missing-targets"] = "tracer found no " + ", ".join(sorted(stats.missing))
    return values, absent
