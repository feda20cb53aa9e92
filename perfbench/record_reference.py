#!/usr/bin/env python3
"""Record the reference verify reports that run.py compares against.

    python3 perfbench/record_reference.py

Runs every suite at --seed 0 --jobs 1 on the checkout's src/ and writes
perfbench/reference/seed0.json: per suite the exit code, the case lines
as printed, and the summary without elapsed_ms.  The committed file was
recorded at the seed commit; re-record only on purpose, since the
benchmark then accepts whatever the current code prints.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

import check
import layers
import run


def main() -> int:
    (run.BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=run.BENCH / ".work")
    try:
        runner = run.Runner(workdir, time.monotonic() + 3600)
        out = {}
        for suite in layers.SUITE_NAMES:
            res = runner.launch(suite, ["verify", suite, "--seed", str(run.REFERENCE_SEED),
                                        "--jobs", "1"])
            cases, summary = check.split_report(res.stdout)
            out[suite] = {"exit": res.code, "cases": cases, "summary": summary}
            print(f"{suite}: exit {res.code}, {len(cases)} cases", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.parent.mkdir(exist_ok=True)
    run.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
