#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. The workloads and metrics in BENCHMARK.json are the ones run.py and
   layers.py define, and a real untraced and traced run emit exactly the
   declared metric names and units.
2. Negative controls for the checker: a corrupted reference line and a
   flipped expected answer must each give a failure ratio above 0, while
   the untouched reference and answer give 0.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import time

import gen
import layers
import run

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_declarations() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads equal run.WORKLOADS")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "BENCHMARK.json end_to_end equals run.END_TO_END")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER,
           "BENCHMARK.json per_layer equals layers.PER_LAYER")
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", "verify-views",
             "--seed", "0", "--seconds", "0", "--trace", str(trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True,
        ).stdout
        result = json.loads(out.splitlines()[-1])
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(emitted == {m["name"]: m["unit"] for m in declared},
               f"--trace {trace} emits exactly the declared metrics")
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}
               and result["correct"] and result["failed"] == 0,
               f"--trace {trace} result is correct with no failed check")


def fail_ratio(call: run.Call, outcome: run.Outcome) -> float:
    attempted, failed, _ = call.check(outcome.stdout, outcome.code)
    return failed / attempted


def check_negative_controls(runner: run.Runner, workdir: str) -> None:
    reference = json.loads(run.REFERENCE.read_text(encoding="utf-8"))
    call = run._verify_call("eventual-base", 0, 1, reference)
    outcome = runner.launch(call.label, call.args)
    expect(fail_ratio(call, outcome) == 0, "verify eventual-base matches its reference")

    corrupted = copy.deepcopy(reference)
    line = corrupted["eventual-base"]["cases"][0]
    corrupted["eventual-base"]["cases"][0] = line.replace('"pass": true', '"pass": false')
    expect(corrupted["eventual-base"]["cases"][0] != line, "reference line was corrupted")
    bad = run._verify_call("eventual-base", 0, 1, corrupted)
    ratio = fail_ratio(bad, outcome)
    expect(ratio > 0, f"corrupted reference line gives fail ratio {ratio:.3f} > 0")

    query = next(q for q in gen.search_queries(0, workdir) if q.name == "iso:PG(2,2)")
    outcome = runner.launch(query.command, [query.command, *query.files])
    good = run.Call(query.command, [], run._query_check(query, 0))
    expect(fail_ratio(good, outcome) == 0, "iso:PG(2,2) answer and certificate check out")
    flipped = dataclasses.replace(query, expect=not query.expect)
    bad = run.Call(query.command, [], run._query_check(flipped, 0))
    ratio = fail_ratio(bad, outcome)
    expect(ratio > 0, f"flipped expected answer gives fail ratio {ratio:.3f} > 0")


def main() -> int:
    check_declarations()
    (run.BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.BENCH / ".work")
    try:
        check_negative_controls(run.Runner(workdir, time.monotonic() + 600), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
