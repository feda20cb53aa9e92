#!/usr/bin/env python3
"""Benchmark of the `mforge` command line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an mforge checkout (the directory that holds
src/mforge); the program runs from that source tree, nothing is installed.

Each workload is a fixed list of `mforge` invocations run as a closed loop
by one client: the next invocation starts when the previous one exits.
A pass is one run of the list; passes repeat until S seconds have gone.
The seed goes to every `--seed` and to the generator of the search inputs.

Workloads, and why each is here:
  verify-geometry  `verify kung` and `verify lemma6`: flat enumeration and
                   Gaussian elimination over PG(n,q) (LinearMatroid, GF(q)).
  verify-views     `lemma4`, `lemma5`, `rank-axioms`, `growth-witness`: rank
                   queries through the lazy views and the per-instance memo.
  search           the oracle, field, structure and eventual-base suites plus
                   a seeded stream of `iso` and `has-minor` calls on generated
                   JSON files: memo-cold, the only user of has_minor and load.
  verify-parallel  the verify-geometry suites at `--jobs 2`: the only
                   workload where the suite runner's worker pool does work.

With --trace 0 the last line reports the end-to-end metrics:
  wall_s       median wall time of a pass, from launching its first
               invocation to the exit of its last; inputs and checks excluded
  setup_s      median of several `mforge --help` runs (start-up, imports,
               parser)
  peak_rss_mb  largest resident set of any workload child process
  pass_ratio   checks passed / checks attempted
With --trace 1 it runs one untraced pass, one pass under tracer.py in span
mode and one in count mode, and reports the per-layer metrics of layers.py.

Every output is checked (check.py): verify reports against the reference
recorded at the seed commit (reference/seed0.json), and iso/has-minor
answers against theory with their certificates re-verified independently.
Children run with PYTHONHASHSEED=0 so that string hashing cannot change
the order of work from one run to the next.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import check
import gen
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference" / "seed0.json"
REFERENCE_SEED = 0
HARD_LIMIT_S = 170.0
SETUP_REPEATS = 7

# Suites whose case lines do not depend on --seed: their reference applies at every seed.
SEED_FREE = {"lemma6", "field-axioms", "spike-oracle", "swirl-oracle", "rep-cross",
             "growth-witness", "spike-structure", "swirl-structure", "eventual-base"}

WORKLOADS: dict[str, tuple[tuple[str, ...], int, bool]] = {
    # name: (verify suites, --jobs, with the iso/has-minor stream)
    "verify-geometry": (("kung", "lemma6"), 1, False),
    "verify-views": (("lemma4", "lemma5", "rank-axioms", "growth-witness"), 1, False),
    "search": (("spike-oracle", "swirl-oracle", "rep-cross", "field-axioms",
                "spike-structure", "swirl-structure", "eventual-base"), 1, True),
    "verify-parallel": (("kung", "lemma6"), 2, False),
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ratio", "ratio")]


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Call:
    label: str
    args: list[str]
    check: Callable[[str, int], tuple[int, int, list[str]]]


@dataclass
class Outcome:
    label: str
    code: int
    stdout: str
    wall_ns: int
    cpu_s: float
    maxrss_kb: int
    trace_file: str | None


# -- workloads ----------------------------------------------------------------------


def _verify_call(suite: str, seed: int, jobs: int, reference: dict) -> Call:
    ref = reference.get(suite) if seed == REFERENCE_SEED or suite in SEED_FREE else None
    return Call(
        f"verify {suite}",
        ["verify", suite, "--seed", str(seed), "--jobs", str(jobs)],
        lambda out, code: check.check_verify(out, code, suite, seed, jobs, ref),
    )


def _query_check(q: gen.Query, seed: int):
    def run_check(out: str, code: int) -> tuple[int, int, list[str]]:
        try:
            doc = json.loads(out)
        except ValueError:
            return 1, 1, [f"{q.name}: unreadable output {out!r}"]
        key = "isomorphic" if q.command == "iso" else "found"
        ok = code == (0 if q.expect else 1) and doc.get(key) is q.expect
        if ok and q.expect:
            a, b = (check.Oracle(json.loads(Path(f).read_text())) for f in q.files)
            if q.command == "iso":
                ok = check.iso_certificate_ok(a, b, doc["mapping"], seed)
            else:
                ok = check.minor_certificate_ok(a, b, doc, seed)
        return 1, 0 if ok else 1, [] if ok else [f"{q.name}: exit {code}, output {out.strip()}"]

    return run_check


def workload_calls(name: str, seed: int, workdir: str, reference: dict) -> list[Call]:
    suites, jobs, stream = WORKLOADS[name]
    calls = [_verify_call(s, seed, jobs, reference) for s in suites]
    if stream:
        for q in gen.search_queries(seed, workdir):
            calls.append(Call(q.command, [q.command, *q.files], _query_check(q, seed)))
    return calls


# -- child processes ------------------------------------------------------------------


class Runner:
    """Starts one child at a time and waits for it; kills it at the hard limit."""

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.serial = 0

    def launch(self, label: str, args: list[str], trace_mode: str | None = None) -> Outcome:
        self.serial += 1
        trace_file = None
        if trace_mode is None:
            argv = [sys.executable, "-m", "mforge.cli", *args]
        else:
            trace_file = os.path.join(self.workdir, f"trace{self.serial:05d}.json")
            argv = [sys.executable, str(BENCH / "tracer.py"), trace_file, trace_mode, *args]
        out_path = os.path.join(self.workdir, "stdout")
        with open(out_path, "w+b") as out, open(os.path.join(self.workdir, "stderr"), "w+b") as err:
            start = time.perf_counter_ns()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            state = {"exited": False, "killed": False}
            lock = threading.Lock()

            def kill():
                with lock:
                    if not state["exited"]:
                        os.kill(proc.pid, signal.SIGKILL)
                        state["killed"] = True

            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), kill)
            timer.start()
            try:
                # WNOWAIT: see the exit without reaping, so the pid cannot be reused
                # before the timer is disarmed.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                end = time.perf_counter_ns()
                with lock:
                    state["exited"] = True
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                timer.cancel()
                proc.kill()
                proc.wait()
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            if state["killed"]:
                raise BenchError(f"`mforge {' '.join(args)}` passed the {HARD_LIMIT_S:.0f} s limit")
            if trace_file and not os.path.exists(trace_file):
                raise BenchError(f"traced `mforge {' '.join(args)}` wrote no trace "
                                 f"(exit {proc.returncode})")
            out.seek(0)
            text = out.read().decode("utf-8", "replace")
        return Outcome(label, proc.returncode, text, end - start,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss, trace_file)

    def run_pass(self, calls: list[Call], trace_mode: str | None = None):
        """(wall ns from first launch to last exit, outcomes)."""
        start = time.perf_counter_ns()
        outcomes = [self.launch(c.label, c.args, trace_mode) for c in calls]
        return time.perf_counter_ns() - start, outcomes


def check_pass(calls: list[Call], outcomes: list[Outcome], notes: list[str]) -> tuple[int, int]:
    attempted = failed = 0
    for call, res in zip(calls, outcomes):
        a, f, n = call.check(res.stdout, res.code)
        attempted += a
        failed += f
        notes.extend(n)
    return attempted, failed


def measure_setup(runner: Runner, notes: list[str]) -> tuple[list[float], int, int]:
    """Times of `mforge --help` after one unmeasured warm-up run."""
    times = []
    failed = 0
    for i in range(SETUP_REPEATS + 1):
        res = runner.launch("--help", ["--help"])
        if res.code != 0 or "usage: mforge" not in res.stdout:
            failed += 1
            notes.append(f"--help: exit {res.code}")
        if i:
            times.append(res.wall_ns / 1e9)
    return times, SETUP_REPEATS + 1, failed


# -- provenance -------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_digest": _src_digest(),
        "seed": seed,
        "loadavg": loadavg,
    }


def _src_digest() -> str:
    """sha256 of src/mforge, so a result names its code even outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "mforge").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- runs -------------------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(runner: Runner, calls: list[Call], seconds: float, notes: list[str]):
    setup_times, attempted, failed = measure_setup(runner, notes)
    walls, peak_kb = [], 0
    start = time.perf_counter()
    while True:
        wall_ns, outcomes = runner.run_pass(calls)
        walls.append(wall_ns / 1e9)
        a, f = check_pass(calls, outcomes, notes)
        attempted += a
        failed += f
        peak_kb = max([peak_kb] + [o.maxrss_kb for o in outcomes])
        if time.perf_counter() - start >= seconds:
            break
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
        "pass_ratio": metric((attempted - failed) / attempted, "ratio"),
    }
    detail = {"pass_wall_s": walls, "setup_s": setup_times}
    return metrics, attempted, failed, detail


def run_traced(runner: Runner, calls: list[Call], suites: tuple[str, ...], notes: list[str]):
    attempted = failed = 0
    passes = {}
    for mode in (None, "spans", "count"):
        wall_ns, outcomes = runner.run_pass(calls, mode)
        a, f = check_pass(calls, outcomes, notes)
        attempted += a
        failed += f
        passes[mode] = [(o.label, o.wall_ns, o.cpu_s, o.trace_file) for o in outcomes]
    values, absent = layers.compute(passes[None], passes["spans"], passes["count"], suites)
    metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER}
    return metrics, attempted, failed, {"absent": absent}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "mforge" / "cli.py").is_file():
        print(f"perfbench: no mforge source tree at {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(args.seed)}
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=BENCH / ".work")
    notes: list[str] = []
    try:
        runner = Runner(workdir, time.monotonic() + HARD_LIMIT_S)
        calls = workload_calls(args.workload, args.seed, workdir, reference)
        if args.trace:
            suites = WORKLOADS[args.workload][0]
            metrics, attempted, failed, detail = run_traced(runner, calls, suites, notes)
        else:
            metrics, attempted, failed, detail = run_untraced(runner, calls, args.seconds, notes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(detail, attempted=attempted, failed=failed, notes=notes[:20])
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
