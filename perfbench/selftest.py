"""Self-test of the benchmark harness.

Usage: python3 perfbench/selftest.py

Feeds one repetition a task whose config has an empty pipe cell, which makes
the CLI raise a raw ValueError (exit code 1 from an uncaught exception, the
same code as a failed check), followed by a valid task. The harness must
count the first task as failed with its exception, still run and pass the
second, and not crash. Exits 0 when it does.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from run import ROOT, Run  # noqa: E402


def main() -> int:
    audit, invert = workloads.generate("c3-general", 0)
    cfg = copy.deepcopy(audit.config)
    cfg["system"]["pipes"][1][0] = []  # the 0 -> 1 pipe has no atoms
    broken = dataclasses.replace(audit, config=cfg)
    workdir = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = Run([broken, invert], trace=False, workdir=workdir)
        run.repeat(0, traced=False)
    finally:
        shutil.rmtree(workdir)
    checks = {
        "both tasks attempted": run.attempted == 2,
        "broken task counted as failed": run.failed == 1,
        "failure names the exception": any("ValueError" in p for p in run.problems),
    }
    for what, ok in checks.items():
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
    for p in run.problems:
        print(f"     problem: {p}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
